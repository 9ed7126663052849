package draft

import (
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/model"
)

// TestFusedHiddensCoverProbs pins each drafter's FusedHiddens against
// what Probs reads: on the root state built for the declared count, Probs
// must equal Probs on the full two-sketch state bit for bit, for Eagle,
// HASS, Eagle-3, SmallLM and NGram, each also behind Freeze, on random
// contexts of lengths 0 to 40.
func TestFusedHiddensCoverProbs(t *testing.T) {
	lm, tk := newTarget(t)
	vocab := tk.VocabSize()
	corpus := sampleCorpus(t, lm, tk, 6, 30, 1)
	ngram := NewNGram(vocab, 1, 3)
	for _, ex := range corpus {
		ngram.Observe(append(ex.Tokens, ex.TargetTok), ex.PromptLen)
	}
	drafters := []Drafter{
		NewEagle(EagleDefault(vocab, gpu.Qwen7B)),
		NewEagle(HASSConfig(vocab, gpu.Qwen7B)),
		NewEagle(Eagle3Config(vocab, gpu.Qwen7B)),
		NewSmallLM("small", vocab, gpu.Qwen05B, 5),
		ngram,
	}
	for _, d := range drafters[:len(drafters):len(drafters)] {
		drafters = append(drafters, Freeze(d))
	}
	rng := rand.New(rand.NewSource(21))
	var full, lean model.HiddenState
	sc, dsc := model.NewScratch(), model.NewScratch()
	want, got := make([]float32, vocab), make([]float32, vocab)
	for trial := 0; trial < 40; trial++ {
		tokens := make([]int, min(trial, 1+rng.Intn(40)))
		for i := range tokens {
			tokens[i] = rng.Intn(vocab)
		}
		promptLen := rng.Intn(len(tokens) + 1)
		ctx := model.Context{Tokens: tokens, PromptLen: promptLen}
		model.FusedHiddenInto(lm, ctx, 2, &full, sc)
		for i, d := range drafters {
			h := model.FusedHiddenInto(lm, ctx, d.FusedHiddens(), &lean, sc)
			d.Probs(tokens, promptLen, &full, 0.9, want, dsc)
			d.Probs(tokens, promptLen, h, 0.9, got, dsc)
			if !sameFloatBits(got, want) {
				t.Fatalf("drafter %d (%s, FusedHiddens %d), context of %d tokens: Probs on the declared root state differs from the full one",
					i, d.Name(), d.FusedHiddens(), len(tokens))
			}
		}
	}
}

// TestTrainOnDeclaredLayers: every Eagle variant trained on examples
// harvested at its FusedHiddens ends with the weights it reaches on
// two-sketch examples, bit for bit, with HASS and Eagle-3 unrolling
// against the target.
func TestTrainOnDeclaredLayers(t *testing.T) {
	lm, tk := newTarget(t)
	vocab := tk.VocabSize()
	rng := rand.New(rand.NewSource(22))
	var seqs []model.Context
	for i := 0; i < 6; i++ {
		prompt := []int{tk.Bos(), tk.Digit(rng.Intn(10)), tk.MustID("+"), tk.Digit(rng.Intn(10)), tk.MustID("=")}
		seqs = append(seqs, model.Context{Tokens: model.Generate(lm, prompt, nil, 1, 30, tk.Eos(), rng), PromptLen: len(prompt)})
	}
	for _, cfg := range []EagleConfig{EagleDefault(vocab, gpu.Qwen7B), HASSConfig(vocab, gpu.Qwen7B), Eagle3Config(vocab, gpu.Qwen7B)} {
		declared, reference := NewEagle(cfg), NewEagle(cfg)
		var lean, full []*Example
		for _, seq := range seqs {
			lean = append(lean, HarvestExamples(lm, seq, declared.FusedHiddens(), true)...)
			full = append(full, HarvestExamples(lm, seq, 2, true)...)
		}
		for epoch := int64(0); epoch < 2; epoch++ {
			declared.Train(lean, lm, rand.New(rand.NewSource(epoch)))
			reference.Train(full, lm, rand.New(rand.NewSource(epoch)))
		}
		if !sameFloatBits(declared.Table().Weights(), reference.Table().Weights()) {
			t.Fatalf("%s trained on %d-layer examples differs from training on two-sketch examples", cfg.Variant, declared.FusedHiddens())
		}
	}
}
