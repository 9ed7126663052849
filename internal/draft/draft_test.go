package draft

import (
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/tokenizer"
)

func newTarget(t testing.TB) (*model.LM, *tokenizer.Tokenizer) {
	t.Helper()
	tk := tokenizer.New()
	cfg := model.DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	cfg.Buckets = 1 << 10
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	lm := model.New(cfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	return lm, tk
}

// sampleCorpus rolls the target over a few synthetic prompts and harvests
// drafter training examples with Eagle-3's two hidden layers, so every
// Eagle variant can train on it.
func sampleCorpus(t testing.TB, lm *model.LM, tk *tokenizer.Tokenizer, nPrompts, maxNew int, seed int64) []*Example {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []*Example
	for i := 0; i < nPrompts; i++ {
		prompt := []int{tk.Bos(), tk.Digit(rng.Intn(10)), tk.MustID("+"), tk.Digit(rng.Intn(10)), tk.MustID("=")}
		seq := model.Generate(lm, prompt, nil, 1, maxNew, tk.Eos(), rng)
		out = append(out, HarvestExamples(lm, model.Context{Tokens: seq, PromptLen: len(prompt)}, 2, true)...)
	}
	if len(out) == 0 {
		t.Fatal("no examples harvested")
	}
	return out
}

func TestEagleTrainingImprovesAccuracy(t *testing.T) {
	lm, tk := newTarget(t)
	train := sampleCorpus(t, lm, tk, 40, 60, 1)
	test := sampleCorpus(t, lm, tk, 10, 60, 2)

	e := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	before := e.TopKAccuracy(test, 3)
	rng := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 3; epoch++ {
		e.Train(train, nil, rng)
	}
	after := e.TopKAccuracy(test, 3)
	if after <= before {
		t.Fatalf("training did not improve top-3 accuracy: %.3f -> %.3f", before, after)
	}
	if after < 0.5 {
		t.Fatalf("trained drafter top-3 accuracy too low: %.3f", after)
	}
	if e.Version != 3 {
		t.Fatalf("Version = %d, want 3", e.Version)
	}
}

func TestEagleStalenessAfterTargetUpdate(t *testing.T) {
	// The adaptive-drafter claim (paper §4, Table 6): a drafter trained on
	// an older target version is measurably worse on the updated target's
	// rollout distribution than the same drafter after adaptive retraining.
	lm, tk := newTarget(t)
	train := sampleCorpus(t, lm, tk, 40, 60, 1)
	e := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 4; epoch++ {
		e.Train(train, nil, rng)
	}
	vanilla := e.Clone() // frozen at target version 0

	// Apply strong RL-style updates to the target.
	shifted := lm.Clone()
	gRng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		prompt := []int{tk.Bos(), tk.Digit(gRng.Intn(10)), tk.MustID("+"), tk.Digit(gRng.Intn(10)), tk.MustID("=")}
		seq := model.Generate(shifted, prompt, nil, 1, 40, tk.Eos(), gRng)
		shifted.PolicyGradientStep(model.Context{Tokens: seq, PromptLen: len(prompt)}, 1, 0.8, 1, nil, 0)
	}

	// Adaptive drafter retrains on the new distribution; vanilla does not.
	fresh := sampleCorpus(t, shifted, tk, 40, 60, 5)
	for epoch := 0; epoch < 3; epoch++ {
		e.Train(fresh, nil, rng)
	}

	testShifted := sampleCorpus(t, shifted, tk, 12, 60, 6)
	accStale := vanilla.TopKAccuracy(testShifted, 1)
	accAdaptive := e.TopKAccuracy(testShifted, 1)
	if accAdaptive <= accStale {
		t.Fatalf("adaptive drafter (%.3f) should beat stale drafter (%.3f) on the shifted distribution",
			accAdaptive, accStale)
	}
}

func TestEagleKDBeatsSFT(t *testing.T) {
	lm, tk := newTarget(t)
	train := sampleCorpus(t, lm, tk, 40, 60, 1)
	test := sampleCorpus(t, lm, tk, 12, 60, 2)

	kdCfg := EagleDefault(tk.VocabSize(), gpu.Qwen7B)
	sftCfg := kdCfg
	sftCfg.Objective = ObjectiveSFT
	kd := NewEagle(kdCfg)
	sft := NewEagle(sftCfg)
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 3; epoch++ {
		kd.Train(train, nil, rng1)
		sft.Train(train, nil, rng2)
	}
	// KD distils the full distribution and should align at least as well.
	ak, as := kd.TopKAccuracy(test, 3), sft.TopKAccuracy(test, 3)
	if ak+0.02 < as {
		t.Fatalf("KD accuracy %.3f clearly below SFT accuracy %.3f", ak, as)
	}
}

func TestHASSUnrollCostsMore(t *testing.T) {
	lm, tk := newTarget(t)
	train := sampleCorpus(t, lm, tk, 10, 40, 1)
	eagle := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	hass := NewEagle(HASSConfig(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(3))
	e0, h0 := eagle.TrainedPasses, hass.TrainedPasses
	eagle.Train(train, lm, rng)
	hass.Train(train, lm, rng)
	se, sh := eagle.TrainedPasses-e0, hass.TrainedPasses-h0
	if sh < 2*se {
		t.Fatalf("HASS (%d passes) should cost well above Eagle (%d passes)", sh, se)
	}
}

func TestEagle3Config(t *testing.T) {
	cfg := Eagle3Config(97, gpu.Qwen7B)
	if cfg.FusedHiddens != 2 || cfg.UnrollSteps != 7 {
		t.Fatalf("unexpected eagle3 config: %+v", cfg)
	}
	e := NewEagle(cfg)
	if e.Name() != "eagle3" {
		t.Fatalf("Name = %q", e.Name())
	}
}

func TestEagleCloneAndCopy(t *testing.T) {
	lm, tk := newTarget(t)
	train := sampleCorpus(t, lm, tk, 10, 40, 1)
	e := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(3))
	e.Train(train, nil, rng)
	snap := e.Clone()
	e.Train(train, nil, rng)
	if snap.Version == e.Version {
		t.Fatal("clone tracked further training")
	}
	fresh := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	fresh.CopyWeightsFrom(e)
	if fresh.Table().L2Distance(e.Table()) != 0 {
		t.Fatal("CopyWeightsFrom did not copy weights")
	}
	if fresh.Version != e.Version {
		t.Fatal("CopyWeightsFrom did not copy version")
	}
}

func TestEagleProbsIsDistribution(t *testing.T) {
	_, tk := newTarget(t)
	e := NewEagle(EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	probs := make([]float32, tk.VocabSize())
	hidden := &model.HiddenState{Sketch: make([]float32, model.HiddenDim)}
	sc := model.NewScratch()
	e.Probs([]int{tk.Bos(), tk.Digit(3)}, 1, hidden, 1, probs, sc)
	var sum float64
	for _, p := range probs {
		if p < 0 {
			t.Fatal("negative probability")
		}
		sum += float64(p)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Nil hidden must not panic (model-free fallback path).
	e.Probs([]int{tk.Bos()}, 1, nil, 1, probs, sc)
}

func TestEagleArchIsSingleLayer(t *testing.T) {
	e := NewEagle(EagleDefault(97, gpu.Qwen32B))
	if e.Arch().Layers != 1 {
		t.Fatalf("drafter arch layers = %d", e.Arch().Layers)
	}
}

func TestNGramRetrieval(t *testing.T) {
	g := NewNGram(50, 1, 3)
	seq := []int{1, 2, 3, 4, 5, 2, 3, 4, 6}
	g.Observe(seq, 0)
	probs := make([]float32, 50)
	// Context ...2,3,4 was last followed by 6.
	g.Probs([]int{9, 2, 3, 4}, 0, nil, 1, probs, nil)
	if top := model.TopK(probs, 1)[0]; top != 6 {
		t.Fatalf("ngram retrieval argmax = %d, want 6", top)
	}
	if g.HitRate() != 1 {
		t.Fatalf("hit rate = %v", g.HitRate())
	}
	// Unseen context: uniform.
	g.Probs([]int{40, 41, 42}, 0, nil, 1, probs, nil)
	if probs[0] != probs[49] {
		t.Fatal("miss should produce uniform distribution")
	}
	if g.HitRate() != 0.5 {
		t.Fatalf("hit rate after miss = %v", g.HitRate())
	}
	if g.Size() == 0 {
		t.Fatal("observe indexed nothing")
	}
}

func TestNGramIsModelFree(t *testing.T) {
	g := NewNGram(50, 1, 3)
	if g.Arch().Layers != 0 {
		t.Fatal("ngram drafter should report zero-cost arch")
	}
	if g.Name() != "ngram" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestNGramProbsSumToOne(t *testing.T) {
	g := NewNGram(30, 1, 2)
	g.Observe([]int{1, 2, 3}, 0)
	probs := make([]float32, 30)
	g.Probs([]int{1, 2}, 0, nil, 1, probs, nil)
	var sum float64
	for _, p := range probs {
		sum += float64(p)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSmallLMDistillation(t *testing.T) {
	lm, tk := newTarget(t)
	train := sampleCorpus(t, lm, tk, 40, 60, 1)
	small := NewSmallLM("qwen0.5b", tk.VocabSize(), gpu.Qwen05B, 5)
	ceFirst := small.Distill(train, 0.3, true)
	var ceLast float64
	for i := 0; i < 4; i++ {
		ceLast = small.Distill(train, 0.3, true)
	}
	if ceLast >= ceFirst {
		t.Fatalf("distillation did not reduce CE: %.3f -> %.3f", ceFirst, ceLast)
	}
	if small.Arch().Name != gpu.Qwen05B.Name {
		t.Fatalf("Arch = %v", small.Arch())
	}
}

func TestHarvestExamples(t *testing.T) {
	lm, tk := newTarget(t)
	rng := rand.New(rand.NewSource(1))
	prompt := []int{tk.Bos(), tk.Digit(2), tk.MustID("+"), tk.Digit(2), tk.MustID("=")}
	seq := model.Generate(lm, prompt, nil, 1, 30, tk.Eos(), rng)
	// One layer (Eagle, HASS) carries the top tokens alone; two
	// (Eagle-3) carry two sketches as well.
	for layers, sketchLen := range map[int]int{1: 0, 2: 2 * model.HiddenDim} {
		exs := HarvestExamples(lm, model.Context{Tokens: seq, PromptLen: len(prompt)}, layers, true)
		if len(exs) != len(seq)-len(prompt) {
			t.Fatalf("harvested %d examples from %d generated tokens", len(exs), len(seq)-len(prompt))
		}
		for i, ex := range exs {
			if ex.TargetTok != seq[len(prompt)+i] {
				t.Fatalf("example %d target token mismatch", i)
			}
			if len(ex.Tokens) != len(prompt)+i {
				t.Fatalf("example %d context length %d", i, len(ex.Tokens))
			}
			if len(ex.Hidden.Sketch) != sketchLen || len(ex.Hidden.TopTokens) != model.NumRankTokens {
				t.Fatalf("%d layers: example %d has %d sketch floats and %d top tokens, want %d and %d",
					layers, i, len(ex.Hidden.Sketch), len(ex.Hidden.TopTokens), sketchLen, model.NumRankTokens)
			}
			if ex.Target == nil {
				t.Fatalf("example %d missing distribution", i)
			}
			if ex.SeqLen != len(seq)-len(prompt) {
				t.Fatalf("example %d SeqLen = %d", i, ex.SeqLen)
			}
		}
	}
	// Empty response harvests nothing.
	if got := HarvestExamples(lm, model.Context{Tokens: prompt, PromptLen: len(prompt)}, 1, false); got != nil {
		t.Fatalf("expected nil for empty response, got %d", len(got))
	}
}

// TestEagleTrainAllocsFlat: Train allocates its buffers once per call, so
// its allocations must not grow with the example count, with rank dropout
// and HASS unrolling on.
func TestEagleTrainAllocsFlat(t *testing.T) {
	lm, tk := newTarget(t)
	examples := sampleCorpus(t, lm, tk, 8, 30, 1)
	e := NewEagle(HASSConfig(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(3))
	half := testing.AllocsPerRun(5, func() { e.Train(examples[:len(examples)/2], lm, rng) })
	all := testing.AllocsPerRun(5, func() { e.Train(examples, lm, rng) })
	if all > half || all > 8 {
		t.Fatalf("Train allocates %.1f objects over %d examples and %.1f over %d, want the same and at most 8",
			half, len(examples)/2, all, len(examples))
	}
	t.Logf("%.1f allocations per Train call over %d examples", all, len(examples))
}
