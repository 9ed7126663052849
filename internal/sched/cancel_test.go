package sched

import (
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
)

// TestCancelPendingNeverEntersBatch pins the earliest eviction point: a
// request cancelled while still pending admission retires at the next
// step boundary without ever prefilling — its prompt is never charged,
// it never joins the decoding set, and it holds no cache pins.
func TestCancelPendingNeverEntersBatch(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))

	keep := env.poolRequest(0, 0, 24, 100)
	drop := env.poolRequest(1, 1, 24, 101)
	b.Admit(keep)
	b.Admit(drop)
	if !b.Cancel(drop.ID) {
		t.Fatal("Cancel did not find the pending request")
	}
	if b.Cancel(99) {
		t.Fatal("Cancel found a request that was never admitted")
	}

	b.Step(rng)
	retired := b.Retire()
	if len(retired) != 1 || retired[0] != drop {
		t.Fatalf("expected exactly the cancelled request retired, got %d", len(retired))
	}
	if !drop.Cancelled() || !drop.Done {
		t.Fatal("cancelled pending request not marked cancelled+done")
	}
	if drop.Generated() != 0 {
		t.Fatalf("cancelled pending request generated %d tokens", drop.Generated())
	}
	if dt := drop.DecodeTime(); dt != 0 {
		t.Fatalf("never-admitted request reports %v decode time, want 0", dt)
	}
	st := b.Stats()
	if st.CancelledRequests != 1 {
		t.Fatalf("stats count %d cancelled, want 1", st.CancelledRequests)
	}
	// The cancelled prompt was never prefilled: only the surviving
	// request's prompt is charged.
	if st.PromptTokens != len(keep.Prompt) {
		t.Fatalf("prompt tokens %d, want %d (cancelled prompt must not be charged)",
			st.PromptTokens, len(keep.Prompt))
	}
	runToCompletion(t, b, rng)
	if !keep.Done || keep.Cancelled() {
		t.Fatal("surviving request did not complete normally")
	}
}

// TestCancelInflightFreesSlotAndCachePins pins the mid-flight eviction
// path: a decoding request that matched the prefix cache holds a retained
// node; cancelling it releases the pin at the next step boundary (the
// refcount drops back to zero), frees its batch slot, and does NOT insert
// the abandoned partial sequence back into the cache.
func TestCancelInflightFreesSlotAndCachePins(t *testing.T) {
	env := newEnv(t)
	cfg := fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1))
	cache := prefixcache.New(prefixcache.Config{})
	cfg.Cache = cache
	b, err := New(cfg, env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))

	r := env.poolRequest(0, 0, 400, 55)
	// Warm the cache with the request's own prompt so prefill matches and
	// retains a node.
	cache.Insert(r.Prompt, len(r.Prompt))
	node, matched := cache.Lookup(r.Prompt)
	if node == nil || matched != len(r.Prompt) {
		t.Fatal("cache warm-up did not cover the prompt")
	}

	b.Admit(r)
	b.Step(rng) // prefill (matches the cache, pins the node) + first round
	if r.Done {
		t.Skip("request finished before it could be cancelled")
	}
	// Our own Lookup retains one reference; the inflight request the other.
	if got := node.Refs(); got != 2 {
		t.Fatalf("refs after prefill = %d, want 2 (test pin + request pin)", got)
	}
	partial := r.Generated()
	if partial == 0 {
		t.Fatal("no tokens before cancellation; cannot observe a partial retire")
	}

	r.Cancel()
	b.Step(rng)
	retired := b.Retire()
	if len(retired) != 1 || retired[0] != r {
		t.Fatalf("cancelled request not retired at the next step boundary")
	}
	if !r.Cancelled() {
		t.Fatal("request not marked cancelled")
	}
	if r.Generated() != partial {
		t.Fatalf("request decoded past its cancellation: %d then %d tokens",
			partial, r.Generated())
	}
	if b.Inflight() != 0 || b.ActiveCount() != 0 {
		t.Fatal("cancelled request still occupies its batch slot")
	}
	if got := node.Refs(); got != 1 {
		t.Fatalf("refs after cancellation = %d, want 1 (request pin released)", got)
	}
	// No insert-back: the abandoned generated suffix must not be cached.
	if ml := cache.MatchLen(r.Tokens); ml > len(r.Prompt) {
		t.Fatalf("cancelled sequence inserted back: cache matches %d of %d prompt tokens",
			ml, len(r.Prompt))
	}
	node.Release()

	// Further steps are free: the batch is empty and the clock is idle.
	before := b.Clock.Now()
	b.Step(rng)
	if b.Clock.Now() != before {
		t.Fatal("empty batch still charged decode time after cancellation")
	}
}

// TestCancelRacingNaturalCompletion pins the race resolution: a Cancel
// that lands after the request already finished is a no-op — the request
// retires exactly once, as completed, not cancelled.
func TestCancelRacingNaturalCompletion(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := env.poolRequest(0, 0, 16, 77)
	b.Admit(r)
	retired := runToCompletion(t, b, rng)
	if len(retired) != 1 {
		t.Fatalf("retired %d, want 1", len(retired))
	}
	finishedAt := r.FinishedAt()

	r.Cancel() // too late: natural completion won
	b.Step(rng)
	if got := b.Retire(); len(got) != 0 {
		t.Fatalf("request retired twice: %d extra retirements", len(got))
	}
	if r.Cancelled() {
		t.Fatal("finished request marked cancelled")
	}
	if r.FinishedAt() != finishedAt {
		t.Fatal("completion time rewritten by late cancel")
	}
	if st := b.Stats(); st.CancelledRequests != 0 {
		t.Fatalf("stats count %d cancelled, want 0", st.CancelledRequests)
	}
}

// TestCancelPreservesCoBatchedStreams extends the scheduler's equivalence
// property (TestContinuousMatchesRunToCompletion) across the eviction
// path: cancelling one co-batched request mid-flight must leave every
// surviving request's token stream — and per-round accept lengths —
// bit-identical to a solo run-to-completion decode.
func TestCancelPreservesCoBatchedStreams(t *testing.T) {
	env := newEnv(t)
	const nReqs = 3
	maxNew := 40

	build := func() []*Request {
		reqs := make([]*Request, nReqs)
		for i := range reqs {
			reqs[i] = env.poolRequest(i, i, maxNew, int64(2000+i))
		}
		return reqs
	}

	// Baseline: each survivor decodes alone to completion.
	solo := build()
	for _, r := range solo {
		b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
		if err != nil {
			t.Fatal(err)
		}
		b.Admit(r)
		runToCompletion(t, b, rand.New(rand.NewSource(7)))
	}

	// Co-batched run with an extra long-running victim that gets cancelled
	// a few steps in.
	cont := build()
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	victim := env.poolRequest(nReqs, nReqs, 4000, 9999)
	rng := rand.New(rand.NewSource(7))
	for _, r := range cont {
		b.Admit(r)
	}
	b.Admit(victim)
	for step := 0; b.ActiveCount() > 0; step++ {
		if step > 100000 {
			t.Fatal("run did not converge")
		}
		if step == 3 {
			if !b.Cancel(victim.ID) {
				t.Fatal("victim not found for cancellation")
			}
		}
		b.Step(rng)
		b.Retire()
	}
	if !victim.Cancelled() {
		t.Fatal("victim not cancelled")
	}
	if victim.Generated() >= 4000 {
		t.Fatal("victim ran to completion despite cancellation")
	}

	for i := range solo {
		s, c := solo[i], cont[i]
		if len(s.Tokens) != len(c.Tokens) {
			t.Fatalf("request %d: solo %d tokens, with-cancel %d", i, len(s.Tokens), len(c.Tokens))
		}
		for j := range s.Tokens {
			if s.Tokens[j] != c.Tokens[j] {
				t.Fatalf("request %d diverges at position %d after a co-batched cancel", i, j)
			}
		}
		if len(s.AcceptLens) != len(c.AcceptLens) {
			t.Fatalf("request %d: solo %d SD rounds, with-cancel %d",
				i, len(s.AcceptLens), len(c.AcceptLens))
		}
		for j := range s.AcceptLens {
			if s.AcceptLens[j] != c.AcceptLens[j] {
				t.Fatalf("request %d round %d accept diverges", i, j)
			}
		}
	}
}

// TestFirstTokenTimestamp pins the TTFT anchor: the first-token time is
// stamped at the end of the step that produced the first response token,
// strictly after admission and at or before completion.
func TestFirstTokenTimestamp(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	r := env.poolRequest(0, 0, 32, 11)
	if _, ok := r.FirstTokenAt(); ok {
		t.Fatal("first-token time set before any decode")
	}
	b.Admit(r)
	runToCompletion(t, b, rand.New(rand.NewSource(4)))
	ft, ok := r.FirstTokenAt()
	if !ok {
		t.Fatal("first-token time never stamped")
	}
	if ft <= r.AdmittedAt() || ft > r.FinishedAt() {
		t.Fatalf("first token at %v outside (%v, %v]", ft, r.AdmittedAt(), r.FinishedAt())
	}
}
