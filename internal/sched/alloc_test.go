package sched

import (
	"math/rand"
	"testing"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/workload"
)

// steadyBatch builds a batch with n requests that cannot finish within
// the measured window, stepped once so every scratch buffer has grown to
// its high-water mark — the serving replica's steady state. With sd it
// speculates under fixedStrategyConfig, and otherwise it decodes without
// speculation.
func steadyBatch(t testing.TB, env *testEnv, n int, sd bool) (*Batch, []*Request, *rand.Rand) {
	t.Helper()
	if sd {
		return steadyBatchWith(t, env, n, fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.eagle)
	}
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	return steadyBatchWith(t, env, n, cfg, nil)
}

// steadyBatchWith is steadyBatch under the given config and drafter.
func steadyBatchWith(t testing.TB, env *testEnv, n int, cfg Config, d draft.Drafter) (*Batch, []*Request, *rand.Rand) {
	t.Helper()
	b, err := New(cfg, env.target, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	reqs := make([]*Request, n)
	for i := 0; i < n; i++ {
		r := NewRequest(i, env.gen.Pool()[i%len(env.gen.Pool())].Prompt, 1<<20,
			workload.LengthPrior{TargetLen: 1 << 20, Sharpness: 25}, -1, -1)
		r.RNG = rand.New(rand.NewSource(int64(200 + i)))
		reqs[i] = r
		b.Admit(r)
	}
	b.Step(rng) // prefill + first round grows all scratch
	return b, reqs, rng
}

// TestBatchStepZeroSteadyStateAllocs pins the allocation-free contract of
// the continuous-batching hot path: once the batch scratch has grown to
// its high-water mark, a steady-state scheduler iteration — bias staging,
// a full multi-sequence speculation round through the single grouped
// scoring pass, acceptance bookkeeping, and the cost model — performs
// zero heap allocations.
func TestBatchStepZeroSteadyStateAllocs(t *testing.T) {
	env := newEnv(t)
	// 16 and 64 exercise the bitmap core past one occupancy word, pinning
	// that wider co-batching windows stay allocation-free too.
	for _, n := range []int{1, 4, 8, 16, 64} {
		b, _, rng := steadyBatch(t, env, n, true)
		// Scratch high-water marks ratchet up over the first rounds as
		// draft-tree shapes vary; wide batches take tens of rounds to
		// converge, so warm past the ratchet before measuring.
		for i := 0; i < 50; i++ {
			b.Step(rng)
		}
		allocs := testing.AllocsPerRun(100, func() {
			b.Step(rng)
		})
		if allocs != 0 {
			t.Errorf("batch=%d: steady-state Step allocates %.1f objects/iter, want 0", n, allocs)
		}
	}
	// DefaultConfig's strategy groups hold two arms each, so every step's
	// BEG-MAB selection reads both arms' median rewards: 2 sequences fall
	// in the TokensToVerify 24 group and 8 in the 16 group.
	for _, n := range []int{2, 8} {
		b, _, rng := steadyBatchWith(t, env, n, DefaultConfig(gpu.NewDevice(gpu.H100, 1)), env.eagle)
		for i := 0; i < 50; i++ {
			b.Step(rng)
		}
		allocs := testing.AllocsPerRun(100, func() {
			b.Step(rng)
		})
		if allocs != 0 {
			t.Errorf("DefaultConfig, batch=%d: steady-state Step allocates %.1f objects/iter, want 0", n, allocs)
		}
	}
}

// TestBatchStepVanillaZeroSteadyStateAllocs covers the non-speculative
// decode iteration (the path above the SD threshold).
func TestBatchStepVanillaZeroSteadyStateAllocs(t *testing.T) {
	env := newEnv(t)
	b, _, rng := steadyBatch(t, env, 6, false)
	allocs := testing.AllocsPerRun(100, func() {
		b.Step(rng)
	})
	if allocs != 0 {
		t.Errorf("steady-state vanilla Step allocates %.1f objects/iter, want 0", allocs)
	}
}
