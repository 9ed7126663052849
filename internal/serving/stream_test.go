package serving

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"fastrl/internal/sched"
	"fastrl/internal/workload"
)

// drainStream pulls a stream to EOF, returning the concatenated token
// chunks, the accept events, the terminal usage, and how many terminal
// events were observed (must be exactly one).
func drainStream(t testing.TB, st *Stream) (tokens []int, accepts []int, usage Response, terminals int) {
	t.Helper()
	for {
		ev, err := st.Recv()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		switch ev.Kind {
		case EventTokens:
			if len(ev.Tokens) == 0 {
				t.Fatal("empty token chunk")
			}
			tokens = append(tokens, ev.Tokens...)
		case EventAccept:
			accepts = append(accepts, ev.AcceptLen)
		case EventUsage:
			usage = ev.Usage
			terminals++
		default:
			t.Fatalf("unknown event kind %d", ev.Kind)
		}
	}
}

// TestStreamMatchesServe pins the wrapper equivalence at the heart of the
// redesign: the token chunks drained from a Stream concatenate to exactly
// the Response.Tokens the one-shot path returns for the same seed, the
// terminal Usage event carries the same payload, and exactly one terminal
// event is delivered.
func TestStreamMatchesServe(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	task := gen.Pool()[1]
	// The length prior shapes a multi-round response so the stream has
	// several chunks (a one-chunk response legitimately has no ITL).
	req := Request{Prompt: task.Prompt, MaxNew: 48, Seed: 17,
		Prior: workload.LengthPrior{TargetLen: 40, Sharpness: 25}}

	srvA, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srvA.Serve(context.Background(), req)
	srvA.Stop()
	if err != nil {
		t.Fatal(err)
	}

	srvB, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Stop()
	st, err := srvB.Stream(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	tokens, accepts, usage, terminals := drainStream(t, st)

	if terminals != 1 {
		t.Fatalf("saw %d terminal events, want exactly 1", terminals)
	}
	if len(tokens) != len(want.Tokens) {
		t.Fatalf("streamed %d tokens, one-shot %d", len(tokens), len(want.Tokens))
	}
	for i := range want.Tokens {
		if tokens[i] != want.Tokens[i] {
			t.Fatalf("streamed token %d differs from the one-shot response", i)
		}
	}
	if len(usage.Tokens) != len(want.Tokens) {
		t.Fatalf("usage carries %d tokens, want %d", len(usage.Tokens), len(want.Tokens))
	}
	if usage.AcceptLen != want.AcceptLen {
		t.Fatalf("usage accept length %v, one-shot %v", usage.AcceptLen, want.AcceptLen)
	}
	if len(accepts) == 0 {
		t.Fatal("no accept events with SD on")
	}
	// Per-round accept events reproduce the response's mean accept length.
	sum := 0
	for _, a := range accepts {
		sum += a
	}
	if got := float64(sum)/float64(len(accepts)) + 1; got != usage.AcceptLen {
		t.Fatalf("accept events mean %v, usage %v", got, usage.AcceptLen)
	}
	if usage.TTFT <= 0 || usage.TTFT > usage.Latency {
		t.Fatalf("TTFT %v outside (0, %v]", usage.TTFT, usage.Latency)
	}
	if usage.ITL <= 0 {
		t.Fatalf("ITL %v, want > 0 for a multi-chunk response", usage.ITL)
	}

	// After EOF the stream stays at EOF.
	if _, err := st.Recv(); err != io.EOF {
		t.Fatalf("post-terminal Recv = %v, want io.EOF", err)
	}
}

// TestStreamCancelMidFlight pins real cancellation: cancelling a
// long-running stream retires the request at the next step boundary with
// a partial response and context.Canceled, stops it consuming steps, and
// leaves a co-batched survivor's token stream bit-identical to a solo
// serve of the same seed.
func TestStreamCancelMidFlight(t *testing.T) {
	target, e, tk, gen := servingSetup(t)

	// Baseline: the survivor alone.
	soloSrv, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	surv := Request{Prompt: gen.Pool()[0].Prompt, MaxNew: 48, Seed: 5}
	want, err := soloSrv.Serve(context.Background(), surv)
	soloSrv.Stop()
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	// The victim: effectively unbounded, co-batched with the survivor.
	victim, err := srv.Stream(context.Background(), Request{
		Prompt: gen.Pool()[1].Prompt, MaxNew: 1 << 19, Seed: 6,
		Prior: workload.LengthPrior{TargetLen: 1 << 19, Sharpness: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the victim is demonstrably decoding, then cancel.
	ev, err := victim.Recv()
	if err != nil || ev.Kind != EventTokens {
		t.Fatalf("first victim event: kind=%d err=%v", ev.Kind, err)
	}
	survivor, err := srv.Stream(context.Background(), surv)
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()

	vtokens, _, vusage, terminals := drainStream(t, victim)
	if terminals != 1 {
		t.Fatalf("victim saw %d terminal events, want exactly 1", terminals)
	}
	if !errors.Is(vusage.Err, context.Canceled) {
		t.Fatalf("victim terminal error = %v, want context.Canceled", vusage.Err)
	}
	vtotal := len(ev.Tokens) + len(vtokens)
	if vtotal == 0 || vtotal >= 1<<19 {
		t.Fatalf("victim generated %d tokens; want a partial response", vtotal)
	}
	if len(vusage.Tokens) != vtotal {
		t.Fatalf("victim usage carries %d tokens, streamed %d", len(vusage.Tokens), vtotal)
	}

	// The survivor — co-batched with a cancelled stranger — is unperturbed.
	got, err := survivor.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tokens) != len(want.Tokens) {
		t.Fatalf("survivor %d tokens, solo %d", len(got.Tokens), len(want.Tokens))
	}
	for i := range want.Tokens {
		if got.Tokens[i] != want.Tokens[i] {
			t.Fatalf("survivor token %d perturbed by the co-batched cancellation", i)
		}
	}

	// The freed slot is really free: the server drains back to idle.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled request still pending: %d", srv.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamCtxCancelPropagates pins the context path: cancelling the
// stream's context (not calling Cancel) retires the request and ends the
// stream with context.Canceled.
func TestStreamCtxCancelPropagates(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	srv, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	st, err := srv.Stream(ctx, Request{
		Prompt: gen.Pool()[2].Prompt, MaxNew: 1 << 19, Seed: 9,
		Prior: workload.LengthPrior{TargetLen: 1 << 19, Sharpness: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := st.Recv(); err != nil || ev.Kind != EventTokens {
		t.Fatalf("first event: kind=%d err=%v", ev.Kind, err)
	}
	cancel()
	resp, err := st.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if len(resp.Tokens) == 0 || len(resp.Tokens) >= 1<<19 {
		t.Fatalf("want a partial response, got %d tokens", len(resp.Tokens))
	}
}

// TestStreamOnCancelledContext pins the fast-fail fix: a context that is
// already cancelled never enqueues (previously the queue-send select
// could pick the ready queue case and burn a slot for a dead caller).
func TestStreamOnCancelledContext(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	srv, err := New(serverConfig(tk, 1), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 32; i++ {
		if _, err := srv.Stream(ctx, Request{Prompt: gen.Pool()[0].Prompt, MaxNew: 8}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Stream on dead ctx = %v, want context.Canceled", err)
		}
	}
	if got := srv.QueueLen(); got != 0 {
		t.Fatalf("dead-caller submissions enqueued %d jobs", got)
	}
}

// TestStreamCancelBeforeAdmission covers the queue-eviction point: a
// stream cancelled while its job waits behind a busy replica delivers
// exactly one terminal event with context.Canceled (and, when the replica
// had not yet admitted it, zero tokens).
func TestStreamCancelBeforeAdmission(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	cfg := fixedStrategyServerConfig(tk, 1, 1) // one replica, batch of one
	srv, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	// Occupy the only slot with an effectively unbounded request.
	hog, err := srv.Stream(context.Background(), Request{
		Prompt: gen.Pool()[0].Prompt, MaxNew: 1 << 19, Seed: 1,
		Prior: workload.LengthPrior{TargetLen: 1 << 19, Sharpness: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := hog.Recv(); err != nil || ev.Kind != EventTokens {
		t.Fatalf("hog first event: kind=%d err=%v", ev.Kind, err)
	}

	// The queued request is cancelled before any replica can admit it.
	queued, err := srv.Stream(context.Background(), Request{
		Prompt: gen.Pool()[1].Prompt, MaxNew: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	hog.Cancel()

	tokens, _, usage, terminals := drainStream(t, queued)
	if terminals != 1 {
		t.Fatalf("queued stream saw %d terminal events, want exactly 1", terminals)
	}
	if !errors.Is(usage.Err, context.Canceled) {
		t.Fatalf("queued terminal error = %v, want context.Canceled", usage.Err)
	}
	if len(tokens) != 0 {
		t.Fatalf("request cancelled in the queue still generated %d tokens", len(tokens))
	}
	if _, _, _, n := drainStream(t, hog); n != 1 {
		t.Fatalf("hog saw %d terminal events", n)
	}
}

// TestStreamEmissionZeroAllocs pins the event hot path: publishing one
// step's progress into a stream (slice-header publication, TTFT/ITL
// samples staged for the SLO feed, consumer wake-up) and pulling the
// resulting events performs zero allocations in steady state — the same
// discipline as sched.Batch.Step.
func TestStreamEmissionZeroAllocs(t *testing.T) {
	s := &Server{}
	j := newJob(Request{})
	st := &Stream{srv: s, j: j, ctx: context.Background()}
	r := sched.NewRequest(0, []int{1, 2, 3}, 1<<14, workload.LengthPrior{}, -1, -1)
	j.sr.Store(r)

	samples := &stepSamples{ttfts: make([]time.Duration, 0, 8), itls: make([]time.Duration, 0, 8)}
	now := time.Millisecond
	emit := func() {
		r.Tokens = append(r.Tokens, 7)
		r.AcceptLens = append(r.AcceptLens, 2)
		now += time.Millisecond
		s.publishProgress(j, r, now, samples)
		samples.flush(s.cfg.SLO, now)
	}
	emit() // warm-up: first chunk takes the TTFT branch
	for {
		// Drain the warm-up events so the measured loop starts clean.
		if ev, _ := st.Recv(); ev.Kind == EventAccept {
			break
		}
	}

	allocs := testing.AllocsPerRun(1000, func() {
		emit()
		if ev, err := st.Recv(); err != nil || ev.Kind != EventTokens {
			t.Fatalf("expected token event, got kind=%d err=%v", ev.Kind, err)
		}
		if ev, err := st.Recv(); err != nil || ev.Kind != EventAccept {
			t.Fatalf("expected accept event, got kind=%d err=%v", ev.Kind, err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state event emission allocates %.1f objects/event, want 0", allocs)
	}
}

// BenchmarkStreamServe measures the end-to-end streamed request path: one
// request streamed to completion through a single continuous-batching
// replica, events drained as they land.
func BenchmarkStreamServe(b *testing.B) {
	target, e, tk, gen := servingSetup(b)
	srv, err := New(fixedStrategyServerConfig(tk, 1, 8), target, e)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	prompt := gen.Pool()[0].Prompt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := srv.Stream(context.Background(), Request{Prompt: prompt, MaxNew: 32, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := st.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
