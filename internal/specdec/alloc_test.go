package specdec

import (
	"math/rand"
	"testing"
)

// TestStepZeroSteadyStateAllocs asserts the allocation-free contract of
// the speculation hot path: after one warm-up round grows the engine
// scratch to the strategy's high-water mark, a steady-state round (draft
// tree + lazy verification) performs zero heap allocations.
func TestStepZeroSteadyStateAllocs(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(61))
	prompt := testPrompt(tk, rng)
	for _, p := range []Params{
		{DraftDepth: 6, TopK: 6, TokensToVerify: 24},
		{DraftDepth: 6, TopK: 1, TokensToVerify: 6},
		{DraftDepth: 12, TopK: 8, TokensToVerify: 64},
	} {
		eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
		eng.Step(e, prompt, len(prompt), p, rng) // warm-up: grow scratch
		allocs := testing.AllocsPerRun(200, func() {
			eng.Step(e, prompt, len(prompt), p, rng)
		})
		if allocs != 0 {
			t.Errorf("strategy %+v: steady-state Step allocates %.1f objects/round, want 0", p, allocs)
		}
	}
}

// TestVanillaStepZeroSteadyStateAllocs covers the non-speculative decode
// path used below the SD threshold.
func TestVanillaStepZeroSteadyStateAllocs(t *testing.T) {
	lm, _, tk := newSetup(t)
	rng := rand.New(rand.NewSource(63))
	prompt := testPrompt(tk, rng)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	eng.VanillaStep(prompt, len(prompt), rng)
	allocs := testing.AllocsPerRun(200, func() {
		eng.VanillaStep(prompt, len(prompt), rng)
	})
	if allocs != 0 {
		t.Errorf("steady-state VanillaStep allocates %.1f objects/step, want 0", allocs)
	}
}
