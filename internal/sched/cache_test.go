package sched

import (
	"math/rand"
	"testing"
	"time"

	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
	"fastrl/internal/workload"
)

// cacheBatch builds a batch sharing the given prefix cache (and phase
// profile, which may be nil), vanilla decoding only (cache behaviour is
// mode-independent; vanilla keeps the test focused).
func cacheBatch(t *testing.T, env *testEnv, cache *prefixcache.Cache, phases *PhaseProfile) *Batch {
	t.Helper()
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	cfg.Cache = cache
	cfg.Phases = phases
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// poolRequests builds requests straight from the task pool so repeated
// calls use identical prompts (unlike env.requests, whose sampler state
// advances between calls).
func poolRequests(env *testEnv, n, maxNew int) []*Request {
	var reqs []*Request
	pool := env.gen.Pool()
	for i := 0; i < n; i++ {
		task := pool[i%len(pool)]
		prior := workload.LengthPrior{TargetLen: maxNew, Sharpness: 25}
		reqs = append(reqs, NewRequest(i, task.Prompt, maxNew, prior, env.tk.Answer(), env.tk.Eos()))
	}
	return reqs
}

// TestCachePrefillSavings runs the same request population twice through
// one cache: the first run misses (cold cache), the second skips every
// prompt position it re-encounters.
func TestCachePrefillSavings(t *testing.T) {
	env := newEnv(t)
	cache := prefixcache.New(prefixcache.Config{})

	cold := cacheBatch(t, env, cache, nil)
	reqs1 := poolRequests(env, 6, 24)
	st1 := cold.Run(reqs1, rand.New(rand.NewSource(11)), 0)
	if st1.PrefillSavedTokens != 0 || st1.PrefillCacheHits != 0 {
		t.Fatalf("cold run saved %d tokens (%d hits), want 0",
			st1.PrefillSavedTokens, st1.PrefillCacheHits)
	}

	warm := cacheBatch(t, env, cache, nil)
	reqs2 := poolRequests(env, 6, 24)
	st2 := warm.Run(reqs2, rand.New(rand.NewSource(11)), 0)
	if st2.PrefillCacheHits != len(reqs2) {
		t.Fatalf("warm run hit on %d/%d requests", st2.PrefillCacheHits, len(reqs2))
	}
	var promptTokens int
	for _, r := range reqs2 {
		promptTokens += len(r.Prompt)
	}
	if st2.PrefillSavedTokens != promptTokens {
		t.Fatalf("warm run saved %d of %d prompt tokens, want all (identical prompts)",
			st2.PrefillSavedTokens, promptTokens)
	}

	// Cache stats agree with engine accounting.
	cs := cache.Stats()
	if cs.SavedPositions != int64(st1.PrefillSavedTokens+st2.PrefillSavedTokens) {
		t.Fatalf("cache saved %d != engine saved %d", cs.SavedPositions, st2.PrefillSavedTokens)
	}
	if cs.Inserts == 0 {
		t.Fatal("completed sequences were not inserted back")
	}
}

// TestCacheDoesNotChangeTokens pins that the cache only changes cost
// accounting, never sampling: the same seeds produce token-identical
// responses with and without a cache.
func TestCacheDoesNotChangeTokens(t *testing.T) {
	env := newEnv(t)

	gen := func(cache *prefixcache.Cache) [][]int {
		eng := cacheBatch(t, env, cache, nil)
		var out [][]int
		for round := 0; round < 2; round++ {
			reqs := poolRequests(env, 4, 20)
			eng.Run(reqs, rand.New(rand.NewSource(int64(round))), 0)
			for _, r := range reqs {
				out = append(out, append([]int(nil), r.Tokens...))
			}
		}
		return out
	}

	withCache := gen(prefixcache.New(prefixcache.Config{}))
	without := gen(nil)
	if len(withCache) != len(without) {
		t.Fatal("request count mismatch")
	}
	for i := range withCache {
		if len(withCache[i]) != len(without[i]) {
			t.Fatalf("request %d: length %d vs %d", i, len(withCache[i]), len(without[i]))
		}
		for j := range withCache[i] {
			if withCache[i][j] != without[i][j] {
				t.Fatalf("request %d diverges at position %d", i, j)
			}
		}
	}
}

// TestCachePrefillCheaper pins the actual virtual-time win: a warm cache
// makes the prefill phase strictly cheaper for identical prompts.
func TestCachePrefillCheaper(t *testing.T) {
	env := newEnv(t)
	cache := prefixcache.New(prefixcache.Config{})

	prefillTime := func() time.Duration {
		phases := NewPhaseProfile()
		eng := cacheBatch(t, env, cache, phases)
		eng.Run(poolRequests(env, 8, 16), rand.New(rand.NewSource(1)), 0)
		ph := phases.Snapshot()
		if ph.Events[PhasePrefill] != 1 {
			t.Fatalf("%d prefill passes, want 1", ph.Events[PhasePrefill])
		}
		return time.Duration(ph.Ns[PhasePrefill])
	}

	coldDur := prefillTime()
	warmDur := prefillTime()
	if warmDur >= coldDur {
		t.Fatalf("warm prefill %v not cheaper than cold %v", warmDur, coldDur)
	}
}

// TestCacheBudgetEvictions pins the cache's charge for a prompt boundary
// end to end: six rounds of the same pool prompts through one batch, at
// budgets tight enough to evict, must leave exactly these Stats. The
// values were recorded when each boundary still stored the target's
// sketch 0 and top tokens; the constant charge that replaced them evicts
// the same nodes.
func TestCacheBudgetEvictions(t *testing.T) {
	env := newEnv(t)
	// Every run looks up and inserts 72 prompts, and hits on all but the
	// first round's 12.
	stats := func(saved, evictions int64, nodes int, resident, budget int64) prefixcache.Stats {
		return prefixcache.Stats{Lookups: 72, Hits: 60, HitRate: 60.0 / 72, SavedPositions: saved,
			Inserts: 72, Evictions: evictions, Nodes: nodes, ResidentBytes: resident, BudgetBytes: budget}
	}
	for _, tc := range []struct {
		budget int64
		want   prefixcache.Stats
	}{
		{2048, stats(228, 131, 7, 1968, 2048)},
		{4096, stats(348, 105, 15, 4048, 4096)},
		{16384, stats(520, 38, 83, 16360, 16384)},
	} {
		cache := prefixcache.New(prefixcache.Config{BudgetBytes: tc.budget})
		eng := cacheBatch(t, env, cache, nil)
		for seed := int64(0); seed < 6; seed++ {
			eng.Run(poolRequests(env, 12, 10), rand.New(rand.NewSource(seed)), 0)
		}
		if got := cache.Stats(); got != tc.want {
			t.Errorf("budget %d: Stats = %+v, want %+v", tc.budget, got, tc.want)
		}
	}
}
