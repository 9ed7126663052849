package sched

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/trace"
)

// runTracedBurst replays a small staggered-arrival burst through a fresh
// batch with every request traced, exercising queue waits (bounded
// admission), SD rounds, a tool-wait pause, a pending-queue cancel, and
// an inflight cancel. Everything is seeded and single-goroutine, so two
// invocations against a frozen drafter are bit-identical.
func runTracedBurst(t *testing.T, env *testEnv, tr *trace.Tracer, reg *metrics.Registry) int {
	t.Helper()
	cfg := fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.Metrics = reg
	b, err := New(cfg, env.target, draft.Freeze(env.eagle))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	const n = 12
	const maxInflight = 4
	reqs := make([]*Request, n)
	arrive := make([]time.Duration, n)
	for i := range reqs {
		r := env.poolRequest(i+1, i, 24, int64(900+i))
		if i == 3 {
			r.Tool = ToolProfile{Every: 8, Latency: 2 * time.Millisecond, MaxCalls: 1}
		}
		r.Trace = tr.Start(int64(r.ID), 0, nil)
		reqs[i] = r
		arrive[i] = time.Duration(i) * 2 * time.Millisecond
	}

	next := 0
	steps := 0
	for next < len(reqs) || b.ActiveCount() > 0 {
		if steps++; steps > 100000 {
			t.Fatal("traced burst did not converge")
		}
		for next < len(reqs) && arrive[next] <= b.Clock.Now() && b.ActiveCount() < maxInflight {
			b.Admit(reqs[next])
			if next == 9 {
				// Cancelled while still in the admission queue: retires
				// without ever prefilling.
				reqs[next].Cancel()
			}
			next++
		}
		if b.ActiveCount() == 0 && next < len(reqs) {
			b.Clock.AdvanceTo(arrive[next])
			continue
		}
		if steps == 12 {
			// Cancelled mid-decode: retires at the next step boundary.
			reqs[5].Cancel()
		}
		b.Step(rng)
		b.Retire()
	}
	return n
}

// TestTraceExportDeterministic is the committed byte-identical pin the
// acceptance criteria require: two same-seed bursty runs export exactly
// the same bytes in both the native JSON and the Chrome trace_event
// formats.
func TestTraceExportDeterministic(t *testing.T) {
	env := newEnv(t)
	export := func() ([]byte, []byte) {
		tr := trace.New(trace.Config{SpanSlots: 256})
		runTracedBurst(t, env, tr, nil)
		e := tr.Export()
		j, err := e.JSON()
		if err != nil {
			t.Fatal(err)
		}
		c, err := e.Chrome()
		if err != nil {
			t.Fatal(err)
		}
		return j, c
	}
	j1, c1 := export()
	j2, c2 := export()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same-seed runs exported different JSON traces")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("same-seed runs exported different Chrome traces")
	}
}

// TestTraceSpansNest validates the recorded lifecycle structure: every
// request's spans have non-negative durations, submit-first/retire-last
// ordering, and sequential (non-overlapping) busy intervals; the burst's
// cancels, tool wait, and queue spans all appear.
func TestTraceSpansNest(t *testing.T) {
	env := newEnv(t)
	tr := trace.New(trace.Config{SpanSlots: 256})
	reg := metrics.NewRegistry()
	n := runTracedBurst(t, env, tr, reg)

	e := tr.Export()
	sum, err := e.Validate()
	if err != nil {
		t.Fatalf("trace validation failed: %v", err)
	}
	if sum.Requests != n {
		t.Fatalf("exported %d requests, want %d", sum.Requests, n)
	}
	if sum.Retired != n {
		t.Fatalf("retired %d, want %d (every trace closes with retire)", sum.Retired, n)
	}
	if sum.Cancelled != 2 {
		t.Fatalf("cancel spans = %d, want 2", sum.Cancelled)
	}
	kinds := map[string]int{}
	for _, req := range e.Requests {
		if req.Dropped != 0 {
			t.Fatalf("req %d dropped %d spans; arena too small for the burst", req.ReqID, req.Dropped)
		}
		for _, sp := range req.Spans {
			kinds[sp.Kind]++
		}
	}
	for _, want := range []string{"submit", "queue", "prefill", "sd-round", "tool-wait", "cancel", "retire"} {
		if kinds[want] == 0 {
			t.Errorf("burst recorded no %q spans", want)
		}
	}
	// The pending-queue cancel never prefilled: exactly n-1 prefills.
	if kinds["prefill"] != n-1 {
		t.Errorf("prefill spans = %d, want %d", kinds["prefill"], n-1)
	}

	// Registry counters reconcile with the trace.
	snap := reg.Snapshot()
	if got := snap.Counter("sched/cancelled"); got != 2 {
		t.Errorf("sched/cancelled = %d, want 2", got)
	}
	var tokens int64
	for _, req := range e.Requests {
		for _, sp := range req.Spans {
			if sp.Kind == "sd-round" || sp.Kind == "decode" {
				tokens += sp.Arg
			}
		}
	}
	if got := snap.Counter("sched/response_tokens"); got != tokens {
		t.Errorf("sched/response_tokens = %d, but trace spans deliver %d", got, tokens)
	}
	if snap.Counter("sched/steps") == 0 {
		t.Errorf("sched/steps not counted")
	}
}

// TestBatchStepTracedZeroAllocs pins the tracing-enabled hot path: a
// steady-state scheduler iteration with every request recording spans
// (arena + flight-recorder mirror) still allocates nothing.
func TestBatchStepTracedZeroAllocs(t *testing.T) {
	env := newEnv(t)
	cfg := fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.Metrics = metrics.NewRegistry()
	b, err := New(cfg, env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFlightRecorder(1024)
	tr := trace.New(trace.Config{SpanSlots: 1 << 12})
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 8; i++ {
		r := env.poolRequest(i+1, i, 1<<20, int64(300+i))
		r.MaxNew = 1 << 20
		r.Trace = tr.Start(int64(r.ID), 0, fr)
		b.Admit(r)
	}
	b.Step(rng) // prefill + first round grows all scratch
	allocs := testing.AllocsPerRun(100, func() {
		b.Step(rng)
	})
	if allocs != 0 {
		t.Errorf("traced steady-state Step allocates %.1f objects/iter, want 0", allocs)
	}
	if fr.Total() == 0 {
		t.Fatalf("flight recorder saw no records")
	}
}
