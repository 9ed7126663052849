package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fastrl/internal/gpu"
	"fastrl/internal/tokenizer"
)

func testLM(t *testing.T) (*LM, *tokenizer.Tokenizer) {
	t.Helper()
	tk := tokenizer.New()
	cfg := DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	cfg.Buckets = 1 << 10 // keep tests fast
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	lm := New(cfg, &GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	return lm, tk
}

func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float32, tempRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float32, len(raw))
		for i, x := range raw {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				x = 0
			}
			// Clamp to a sane logit range.
			if x > 50 {
				x = 50
			}
			if x < -50 {
				x = -50
			}
			logits[i] = x
		}
		temp := 0.1 + float64(tempRaw)/64
		probs := make([]float32, len(logits))
		Softmax(logits, temp, probs)
		var sum float64
		for _, p := range probs {
			if p < 0 || math.IsNaN(float64(p)) {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxGreedyAtZeroTemp(t *testing.T) {
	logits := []float32{0.1, 3.0, -2, 2.9}
	probs := make([]float32, 4)
	Softmax(logits, 0, probs)
	if probs[1] != 1 {
		t.Fatalf("zero-temp softmax not one-hot at argmax: %v", probs)
	}
}

func TestSampleProbsMatchesDistribution(t *testing.T) {
	probs := []float32{0.5, 0.3, 0.2}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 3)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[SampleProbs(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-float64(p)) > 0.01 {
			t.Fatalf("token %d frequency %v, want %v", i, got, p)
		}
	}
}

func TestTopK(t *testing.T) {
	probs := []float32{0.1, 0.4, 0.2, 0.3}
	got := TopK(probs, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v", got)
	}
	if got := TopK(probs, 100); len(got) != 4 {
		t.Fatalf("TopK clamp failed: %v", got)
	}
}

func TestTableAccumulateAndGrad(t *testing.T) {
	tb := NewTable(4, 3)
	copy(tb.Row(1), []float32{1, 2, 3})
	copy(tb.Row(2), []float32{10, 20, 30})
	dst := make([]float32, 3)
	tb.Accumulate([]int{1, 2}, dst)
	if dst[0] != 11 || dst[1] != 22 || dst[2] != 33 {
		t.Fatalf("Accumulate = %v", dst)
	}
	tb.AddGrad([]int{1}, []float32{1, 1, 1}, 0.5)
	if tb.Row(1)[0] != 1.5 {
		t.Fatalf("AddGrad row1 = %v", tb.Row(1))
	}
	if tb.Row(0)[0] != 0.5 { // bias row always updated
		t.Fatalf("AddGrad bias = %v", tb.Row(0))
	}
	if tb.Row(2)[0] != 10 { // untouched
		t.Fatalf("AddGrad touched wrong row: %v", tb.Row(2))
	}
}

func TestTableCloneIndependence(t *testing.T) {
	tb := NewTable(2, 2)
	tb.Row(1)[0] = 5
	c := tb.Clone()
	c.Row(1)[0] = 9
	if tb.Row(1)[0] != 5 {
		t.Fatal("Clone shares storage")
	}
	if d := tb.L2Distance(c); math.Abs(d-4) > 1e-6 {
		t.Fatalf("L2Distance = %v, want 4", d)
	}
}

func TestLMDeterminism(t *testing.T) {
	a, tk := testLM(t)
	b, _ := testLM(t)
	ctx := Context{Tokens: []int{tk.Bos(), tk.Digit(3), tk.MustID("+")}, PromptLen: 3}
	pa := make([]float32, a.Config().Vocab)
	pb := make([]float32, b.Config().Vocab)
	a.Probs(ctx, nil, 1, pa)
	b.Probs(ctx, nil, 1, pb)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same-seed models disagree")
		}
	}
}

func TestGrammarPriorShapesAnswers(t *testing.T) {
	lm, tk := testLM(t)
	probs := make([]float32, lm.Config().Vocab)
	// After <answer>, digits should dominate.
	ctx := Context{Tokens: []int{tk.Bos(), tk.Answer()}, PromptLen: 1}
	lm.Probs(ctx, nil, 1, probs)
	var digitMass float32
	for d := 0; d <= 9; d++ {
		digitMass += probs[tk.Digit(d)]
	}
	if digitMass < 0.5 {
		t.Fatalf("digit mass after <answer> = %v, want > 0.5", digitMass)
	}
	// After <answer> digit, EOS should be likely.
	ctx = Context{Tokens: []int{tk.Bos(), tk.Answer(), tk.Digit(4)}, PromptLen: 1}
	lm.Probs(ctx, nil, 1, probs)
	if probs[tk.Eos()] < 0.3 {
		t.Fatalf("eos probability after answer digit = %v", probs[tk.Eos()])
	}
}

func TestLogitBias(t *testing.T) {
	lm, tk := testLM(t)
	ctx := Context{Tokens: []int{tk.Bos(), tk.MustID("the")}, PromptLen: 1}
	base := make([]float32, lm.Config().Vocab)
	biased := make([]float32, lm.Config().Vocab)
	lm.Probs(ctx, nil, 1, base)
	lm.Probs(ctx, map[int]float32{tk.Eos(): -10}, 1, biased)
	if biased[tk.Eos()] >= base[tk.Eos()] {
		t.Fatalf("negative bias did not reduce eos probability: %v >= %v",
			biased[tk.Eos()], base[tk.Eos()])
	}
}

func TestPolicyGradientShiftsDistribution(t *testing.T) {
	lm, tk := testLM(t)
	prompt := []int{tk.Bos(), tk.Digit(3), tk.MustID("+"), tk.Digit(4), tk.MustID("=")}
	resp := []int{tk.Answer(), tk.Digit(7), tk.Eos()}
	full := append(append([]int{}, prompt...), resp...)
	ctx := Context{Tokens: full, PromptLen: len(prompt)}

	before := respProb(lm, ctx)
	for i := 0; i < 10; i++ {
		lm.PolicyGradientStep(ctx, 1.0, 0.5, 1.0, nil, 0)
	}
	after := respProb(lm, ctx)
	if after <= before {
		t.Fatalf("positive-advantage update did not increase response probability: %v <= %v", after, before)
	}
	if lm.Version != 10 {
		t.Fatalf("Version = %d, want 10", lm.Version)
	}
}

func TestPolicyGradientNegativeAdvantage(t *testing.T) {
	lm, tk := testLM(t)
	prompt := []int{tk.Bos(), tk.Digit(2), tk.MustID("*"), tk.Digit(3), tk.MustID("=")}
	resp := []int{tk.Answer(), tk.Digit(5), tk.Eos()}
	full := append(append([]int{}, prompt...), resp...)
	ctx := Context{Tokens: full, PromptLen: len(prompt)}
	before := respProb(lm, ctx)
	lm.PolicyGradientStep(ctx, -1.0, 0.5, 1.0, nil, 0)
	after := respProb(lm, ctx)
	if after >= before {
		t.Fatalf("negative-advantage update did not decrease response probability: %v >= %v", after, before)
	}
}

func TestKLPenaltyRestrainsDrift(t *testing.T) {
	free, tk := testLM(t)
	constrained, _ := testLM(t)
	ref := free.Clone()

	prompt := []int{tk.Bos(), tk.Digit(1), tk.MustID("+"), tk.Digit(1), tk.MustID("=")}
	resp := []int{tk.Answer(), tk.Digit(2), tk.Eos()}
	full := append(append([]int{}, prompt...), resp...)
	ctx := Context{Tokens: full, PromptLen: len(prompt)}

	for i := 0; i < 20; i++ {
		free.PolicyGradientStep(ctx, 1, 0.5, 1, nil, 0)
		constrained.PolicyGradientStep(ctx, 1, 0.5, 1, ref, 0.5)
	}
	dFree := free.Table().L2Distance(ref.Table())
	dCon := constrained.Table().L2Distance(ref.Table())
	if dCon >= dFree {
		t.Fatalf("KL-constrained drift %v should be below unconstrained %v", dCon, dFree)
	}
}

func TestHiddenSketchVariesWithContext(t *testing.T) {
	lm, tk := testLM(t)
	h1 := make([]float32, HiddenDim)
	h2 := make([]float32, HiddenDim)
	sc := NewScratch()
	lm.HiddenScratch(Context{Tokens: []int{tk.Bos(), tk.Digit(1)}, PromptLen: 1}, h1, sc)
	lm.HiddenScratch(Context{Tokens: []int{tk.Bos(), tk.MustID("sum")}, PromptLen: 1}, h2, sc)
	same := true
	for i := range h1 {
		if h1[i] != h2[i] {
			same = false
		}
		if h1[i] < -1 || h1[i] > 1 {
			t.Fatalf("hidden dim %d out of [-1,1]: %v", i, h1[i])
		}
	}
	if same {
		t.Fatal("hidden sketch identical across different contexts")
	}
}

func TestCloneIsolation(t *testing.T) {
	lm, tk := testLM(t)
	ref := lm.Clone()
	prompt := []int{tk.Bos(), tk.Digit(5), tk.MustID("=")}
	full := append(append([]int{}, prompt...), tk.Answer(), tk.Digit(5), tk.Eos())
	ctx := Context{Tokens: full, PromptLen: len(prompt)}
	lm.PolicyGradientStep(ctx, 1, 1, 1, nil, 0)
	if lm.Table().L2Distance(ref.Table()) == 0 {
		t.Fatal("update did not change weights")
	}
	pa := make([]float32, lm.Config().Vocab)
	pb := make([]float32, lm.Config().Vocab)
	lm.Probs(Context{Tokens: prompt, PromptLen: len(prompt)}, nil, 1, pa)
	ref.Probs(Context{Tokens: prompt, PromptLen: len(prompt)}, nil, 1, pb)
	diff := false
	for i := range pa {
		if pa[i] != pb[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("reference model tracked policy update")
	}
}

// respProb returns the product probability of the generated suffix.
func respProb(lm *LM, ctx Context) float64 {
	probs := make([]float32, lm.Config().Vocab)
	p := 1.0
	for pos := ctx.PromptLen; pos < len(ctx.Tokens); pos++ {
		sub := Context{Tokens: ctx.Tokens[:pos], PromptLen: ctx.PromptLen}
		lm.Probs(sub, nil, 1, probs)
		p *= float64(probs[ctx.Tokens[pos]])
	}
	return p
}

func TestFeaturesWithinTable(t *testing.T) {
	lm, tk := testLM(t)
	rng := rand.New(rand.NewSource(3))
	var buf [8]int
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		toks := make([]int, n)
		for i := range toks {
			toks[i] = rng.Intn(tk.VocabSize())
		}
		feats := lm.Features(Context{Tokens: toks, PromptLen: rng.Intn(n + 1)}, buf[:0])
		for _, f := range feats {
			if f < 1 || f >= lm.Table().Rows {
				t.Fatalf("feature %d out of table range [1,%d)", f, lm.Table().Rows)
			}
		}
	}
}
