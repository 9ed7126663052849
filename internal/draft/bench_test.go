package draft

import (
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/model"
)

func BenchmarkEagleProbs(b *testing.B) {
	lm, tk := newTarget(b)
	e := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	ctx := []int{tk.Bos(), tk.Digit(3), tk.MustID("+"), tk.Digit(4), tk.MustID("=")}
	hidden := model.FusedHiddenInto(lm, model.Context{Tokens: ctx, PromptLen: len(ctx)}, e.FusedHiddens(), &model.HiddenState{}, model.NewScratch())
	dst := make([]float32, tk.VocabSize())
	sc := model.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Probs(ctx, len(ctx), hidden, 0.9, dst, sc)
	}
}

func BenchmarkEagleTrainBatch(b *testing.B) {
	lm, tk := newTarget(b)
	examples := sampleCorpus(b, lm, tk, 20, 40, 1)
	e := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Train(examples, nil, rng)
	}
	b.ReportMetric(float64(len(examples)), "examples/op")
}

func BenchmarkHASSTrainBatch(b *testing.B) {
	lm, tk := newTarget(b)
	examples := sampleCorpus(b, lm, tk, 10, 40, 1)
	e := NewEagle(HASSConfig(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Train(examples, lm, rng)
	}
}

func BenchmarkNGramObserve(b *testing.B) {
	g := NewNGram(97, 1, 3)
	rng := rand.New(rand.NewSource(4))
	seq := make([]int, 256)
	for i := range seq {
		seq[i] = rng.Intn(97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Observe(seq, 8)
	}
}

func BenchmarkNGramProbs(b *testing.B) {
	g := NewNGram(97, 1, 3)
	rng := rand.New(rand.NewSource(4))
	seq := make([]int, 256)
	for i := range seq {
		seq[i] = rng.Intn(97)
	}
	g.Observe(seq, 0)
	dst := make([]float32, 97)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Probs(seq[:64], 0, nil, 0.9, dst, nil)
	}
}

func BenchmarkHarvestExamples(b *testing.B) {
	lm, tk := newTarget(b)
	rng := rand.New(rand.NewSource(5))
	prompt := []int{tk.Bos(), tk.Digit(2), tk.MustID("+"), tk.Digit(2), tk.MustID("=")}
	seq := model.Generate(lm, prompt, nil, 0.9, 64, tk.Eos(), rng)
	ctx := model.Context{Tokens: seq, PromptLen: len(prompt)}
	// The RL step harvests for TLT's Eagle, which reads one hidden layer.
	layers := EagleDefault(tk.VocabSize(), gpu.Qwen7B).FusedHiddens
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HarvestExamples(lm, ctx, layers, true)
	}
}
