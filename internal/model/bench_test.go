package model

import (
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/tokenizer"
)

func benchLM(b *testing.B) (*LM, *tokenizer.Tokenizer, []int) {
	b.Helper()
	tk := tokenizer.New()
	cfg := DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	cfg.Buckets = 1 << 12
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	lm := New(cfg, &GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	ctx := []int{tk.Bos(), tk.Digit(3), tk.MustID("+"), tk.Digit(4), tk.MustID("="), tk.MustID("so")}
	return lm, tk, ctx
}

func BenchmarkLogits(b *testing.B) {
	lm, _, ctx := benchLM(b)
	dst := make([]float32, lm.Config().Vocab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.Logits(Context{Tokens: ctx, PromptLen: 5}, nil, dst)
	}
}

func BenchmarkProbsWithBias(b *testing.B) {
	lm, tk, ctx := benchLM(b)
	dst := make([]float32, lm.Config().Vocab)
	bias := map[int]float32{tk.Eos(): -4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.Probs(Context{Tokens: ctx, PromptLen: 5}, bias, 0.9, dst)
	}
}

func BenchmarkPolicyGradientStep(b *testing.B) {
	lm, tk, _ := benchLM(b)
	rng := rand.New(rand.NewSource(1))
	prompt := []int{tk.Bos(), tk.Digit(3), tk.MustID("+"), tk.Digit(4), tk.MustID("=")}
	seq := Generate(lm, prompt, nil, 0.9, 64, tk.Eos(), rng)
	ctx := Context{Tokens: seq, PromptLen: len(prompt)}
	ref := lm.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.PolicyGradientStep(ctx, 0.5, 0.05, 0.9, ref, 0.15)
	}
}

func BenchmarkGenerate64(b *testing.B) {
	lm, tk, _ := benchLM(b)
	rng := rand.New(rand.NewSource(1))
	prompt := []int{tk.Bos(), tk.Digit(3), tk.MustID("+"), tk.Digit(4), tk.MustID("=")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(lm, prompt, nil, 0.9, 64, tk.Eos(), rng)
	}
}

// The table and softmax benchmarks run at the Eagle drafter's shape (see
// drafterShape), with a kernel sub-benchmark through the dispatched entry
// point and a go sub-benchmark through the reference loop, so one binary
// reports the one against the other.

func BenchmarkTableAccumulate(b *testing.B) {
	tb, feats, _ := drafterShape()
	dst := make([]float32, tb.Vocab)
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.Accumulate(feats, dst)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.accumulateGo(feats, dst, 0)
		}
	})
}

func BenchmarkTableAddGrad(b *testing.B) {
	tb, feats, grad := drafterShape()
	const lr = 1e-6 // keeps the weights finite over any b.N
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.AddGrad(feats, grad, lr)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb.addGradGo(feats, grad, lr, 0)
		}
	})
}

func BenchmarkSoftmax(b *testing.B) {
	_, _, logits := drafterShape()
	probs := make([]float32, len(logits))
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Softmax(logits, 0.9, probs)
		}
	})
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			softmaxGo(logits, 0.9, probs)
		}
	})
}
