package specdec

import (
	"math/rand"
	"testing"
)

// BenchmarkSpecRound is the canonical steady-state speculation round:
// tree drafting plus lazy verification, which scores only the positions
// the walk visits.
func BenchmarkSpecRound(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	eng.Step(e, prompt, len(prompt), p, rng) // grow scratch outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(e, prompt, len(prompt), p, rng)
	}
}

// BenchmarkStepBatch is the multi-sequence round: 8 sequences drafted and
// verified in one StepBatch call, the continuous-batching analogue of
// BenchmarkSpecRound.
func BenchmarkStepBatch(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9}
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	rng := rand.New(rand.NewSource(1))
	seqs := make([]Seq, 8)
	rngs := make([]*rand.Rand, len(seqs))
	out := make([]Result, len(seqs))
	for i := range seqs {
		prompt := testPrompt(tk, rng)
		seqs[i] = Seq{Tokens: prompt, PromptLen: len(prompt), EosID: -1}
		rngs[i] = rng
	}
	eng.StepBatch(e, seqs, p, rngs, out) // grow scratch outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepBatch(e, seqs, p, rngs, out)
	}
}

func BenchmarkSpecStepLinear(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 6, TopK: 1, TokensToVerify: 6}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(e, prompt, len(prompt), p, rng)
	}
}

func BenchmarkVanillaStep(b *testing.B) {
	lm, _, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.VanillaStep(prompt, len(prompt), rng)
	}
}
