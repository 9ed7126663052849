// Streaming request sessions: the server's primary request path. A
// Stream delivers a request's response incrementally — token chunks at
// scheduler step boundaries (one chunk per speculation round's accepted
// run), per-round accept-length updates, and a terminal Usage event — and
// supports mid-flight cancellation that really frees server resources:
// cancelling the stream's context (or calling Cancel) marks the request
// for retirement, and the replica step-loop evicts it at the next step
// boundary, releasing its KV charge, prefix-cache pins, and batch slot.
//
// The event hot path is allocation-free in steady state: the replica
// publishes slice headers over request-owned token storage under a
// per-job mutex (the producer only ever appends, so a published prefix is
// immutable), and Recv hands out sub-slices of that storage. Per-request
// setup (job, stream handle, watcher goroutine) allocates; per-event
// emission does not — pinned by TestStreamEmissionZeroAllocs.
package serving

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastrl/internal/sched"
	"fastrl/internal/slo"
)

// EventKind discriminates stream events.
type EventKind uint8

const (
	// EventTokens carries newly generated tokens. One event per scheduler
	// step the request decoded in: a speculation round's whole accepted
	// run arrives as a single chunk.
	EventTokens EventKind = iota + 1
	// EventAccept carries one SD round's accepted-token count (the raw
	// per-round entry behind Response.AcceptLen; vanilla decoding emits
	// none).
	EventAccept
	// EventUsage is the terminal event, carrying everything Response
	// carries. Exactly one is delivered per stream — after it, Recv
	// returns io.EOF.
	EventUsage
)

// Event is one streamed increment of a response.
type Event struct {
	Kind EventKind
	// Tokens (EventTokens) is the chunk of newly generated tokens since
	// the previous token event. It aliases stream-owned storage that stays
	// valid for the life of the stream but is only guaranteed stable until
	// the next Recv; copy it to retain across pulls.
	Tokens []int
	// AcceptLen (EventAccept) is the number of draft tokens the target
	// accepted in one speculation round.
	AcceptLen int
	// Usage (EventUsage) is the final response. Usage.Err is
	// context.Canceled when the stream was cancelled mid-flight (the
	// tokens delivered so far are the partial response).
	Usage Response
}

// job is one request's shared state between the replica that decodes it
// (the producer) and the stream handle that observes it (the consumer).
type job struct {
	req      Request
	enqueued time.Time

	// mu guards the published stream state below. The producer publishes
	// slice headers over the scheduler request's token storage; because
	// the producer only appends, everything below a published length is
	// immutable and the consumer may read it lock-free after copying the
	// header under mu.
	mu      sync.Mutex
	tokens  []int // published generated-token prefix
	accepts []int // published per-SD-round accept lengths
	done    bool
	final   Response

	// notify wakes a blocked Recv after each publish (capacity 1,
	// non-blocking producer sends); term is closed exactly once at the
	// terminal publish so every waiter — Wait callers and the context
	// watcher — wakes without stealing Recv's signal.
	notify chan struct{}
	term   chan struct{}

	// cancelReq marks the job for retirement; sr points at the scheduler
	// request once the replica admits the job, so a late cancel reaches
	// the batch directly. Their store/load ordering makes cancellation
	// race-free against admission: at least one side observes the other.
	cancelReq atomic.Bool
	sr        atomic.Pointer[sched.Request]
	// claimed is the terminal-ownership CAS: exactly one of the replica
	// (at admission) or a canceller (evicting a still-queued job) wins it
	// and is responsible for delivering the terminal event — a request
	// cancelled behind a saturated batch must not wait for a slot it no
	// longer wants.
	claimed atomic.Bool
	// finished is the delivery dedup CAS: the first terminal publisher
	// (replica retirement, queued-cancel, or a failover-driven Fail) wins;
	// every later attempt is swallowed and counted. This is what guarantees
	// a request completing concurrently with failover never emits twice.
	finished atomic.Bool
	// onFinish hooks (guarded by mu) run exactly once each, in
	// registration order, with the final response before any waiter
	// observes the terminal event — the cluster's accounting hooks.
	onFinish []func(Response)

	// Producer-side chunk bookkeeping (replica goroutine only).
	pubTok     int           // generated tokens published so far
	firstTokV  time.Duration // virtual clock at the first token chunk
	lastTokV   time.Duration // virtual clock at the latest token chunk
	firstChunk int           // tokens in the first chunk
	ttft       time.Duration
}

func newJob(req Request) *job {
	return &job{
		req:      req,
		enqueued: time.Now(),
		notify:   make(chan struct{}, 1),
		term:     make(chan struct{}),
	}
}

// cancelJob marks a job for retirement. An admitted job is evicted by
// its batch at the next step boundary; a job still sitting in the
// admission queue is claimed and finished here, immediately — it must
// not hold its queue slot (or, through the cluster, its admission
// reservation) waiting for a replica that may be saturated for a long
// time. The claimed CAS makes this race-free against a replica admitting
// the job concurrently: whichever side wins delivers the terminal event,
// and sequentially consistent atomics guarantee the loser's view is
// caught (a replica that wins the claim after cancelReq was set observes
// the flag and cancels the scheduler request).
func (s *Server) cancelJob(j *job) {
	j.cancelReq.Store(true)
	if r := j.sr.Load(); r != nil {
		r.Cancel()
		return
	}
	if j.claimed.CompareAndSwap(false, true) {
		s.finishJob(j, Response{Err: context.Canceled}, false, 0)
	}
}

// Stream is a pull-based streaming session over one request — the
// primary request path (Serve is a thin wrapper that drains one). Recv
// is single-consumer; Wait and Cancel are safe from any goroutine.
type Stream struct {
	srv *Server
	j   *job
	ctx context.Context

	// Consumer cursors, owned by the Recv caller.
	nextTok     int
	nextAcc     int
	sawUsage    bool
	ctxObserved bool
}

// Recv returns the next event, blocking until one is available. After the
// terminal EventUsage it returns io.EOF. If the stream's context is
// cancelled while Recv waits, the request is marked for retirement and
// Recv keeps delivering events until the terminal one — cancellation
// produces a well-formed stream ending, not an abrupt error.
func (st *Stream) Recv() (Event, error) {
	j := st.j
	for {
		j.mu.Lock()
		switch {
		case st.nextTok < len(j.tokens):
			ev := Event{Kind: EventTokens, Tokens: j.tokens[st.nextTok:len(j.tokens):len(j.tokens)]}
			st.nextTok = len(j.tokens)
			j.mu.Unlock()
			return ev, nil
		case st.nextAcc < len(j.accepts):
			ev := Event{Kind: EventAccept, AcceptLen: j.accepts[st.nextAcc]}
			st.nextAcc++
			j.mu.Unlock()
			return ev, nil
		case j.done:
			if st.sawUsage {
				j.mu.Unlock()
				return Event{}, io.EOF
			}
			st.sawUsage = true
			ev := Event{Kind: EventUsage, Usage: j.final}
			j.mu.Unlock()
			return ev, nil
		}
		j.mu.Unlock()

		if st.ctxObserved || st.ctx.Done() == nil {
			select {
			case <-j.notify:
			case <-j.term:
			}
		} else {
			select {
			case <-j.notify:
			case <-j.term:
			case <-st.ctx.Done():
				st.ctxObserved = true
				st.Cancel()
			}
		}
	}
}

// Wait blocks until the stream's terminal event and returns the final
// response without consuming the event iterator (Recv still sees the
// full stream). The error return is authoritative; it mirrors
// Response.Err. Cancelling the stream's context makes Wait return the
// partial response with context.Canceled once the replica retires the
// request at its next step boundary.
func (st *Stream) Wait() (Response, error) {
	j := st.j
	if done := st.ctx.Done(); done != nil {
		select {
		case <-j.term:
		case <-done:
			st.Cancel()
			<-j.term
		}
	} else {
		<-j.term
	}
	j.mu.Lock()
	resp := j.final
	j.mu.Unlock()
	return resp, resp.Err
}

// Fail force-finishes the stream with err: the terminal Usage carries the
// tokens published so far as the partial response. Unlike Cancel it does
// not wait for the replica's next step boundary — a stream stranded on a
// hung shard terminates immediately — though the scheduler request is
// still marked for retirement so a live (or later revived) replica frees
// its resources at its next step. If the request completes (or crashes)
// first, that terminal wins and Fail is a no-op: exactly one terminal
// event is ever delivered.
func (st *Stream) Fail(err error) { st.srv.failJob(st.j, err) }

// failJob implements Stream.Fail. It must not touch the scheduler
// request's token storage — a live replica may be appending to it
// concurrently — so the partial response is the stream's own published
// prefix.
func (s *Server) failJob(j *job, err error) {
	j.cancelReq.Store(true)
	if r := j.sr.Load(); r != nil {
		r.Cancel()
		s.forceFinish(j, err, true)
		return
	}
	if j.claimed.CompareAndSwap(false, true) {
		s.forceFinish(j, err, false)
		return
	}
	// Admission won the claim race. Wait for it to either publish the
	// scheduler request or finish the job through the cancellation path
	// (it re-checks cancelReq on both sides of the store).
	for j.sr.Load() == nil && !j.finished.Load() {
		runtime.Gosched()
	}
	if r := j.sr.Load(); r != nil {
		r.Cancel()
		s.forceFinish(j, err, true)
	}
}

// forceFinish delivers an externally-driven terminal event, bypassing the
// replica. The dedup CAS makes it a no-op if any terminal already landed;
// when it wins while the job is admitted, it releases the replica's
// inflight charge (the losing replica retirement will skip its own
// release).
func (s *Server) forceFinish(j *job, err error, admitted bool) {
	if !j.finished.CompareAndSwap(false, true) {
		return
	}
	if admitted {
		s.inflight.Add(-1)
	}
	// A forced terminal is an availability event unless it was a client
	// cancellation. The engine's monotone clamp absorbs the zero virtual
	// timestamp (failover drives this path off the replica goroutine, so
	// no fresher reading of the dead shard's clock exists).
	if s.cfg.SLO != nil && !errors.Is(err, context.Canceled) {
		s.cfg.SLO.ObserveOutcome(false, 0)
	}
	j.mu.Lock()
	var reqID int64
	if r := j.sr.Load(); r != nil {
		reqID = int64(r.ID)
	}
	resp := Response{Tokens: j.tokens, ReqID: reqID, Err: err}
	j.final = resp
	for _, fn := range j.onFinish {
		fn(resp)
	}
	j.onFinish = nil
	j.done = true
	j.mu.Unlock()
	close(j.term)
	close(j.notify)
}

// Cancel marks the request for retirement — equivalent to cancelling the
// stream's context. An admitted request is evicted at the replica's next
// step boundary, releasing its KV charge, prefix-cache pins, and batch
// slot; a request still queued is finished immediately without ever
// entering a batch. Idempotent; a request that completes naturally first
// wins the race, and either way exactly one terminal event is delivered.
func (st *Stream) Cancel() { st.srv.cancelJob(st.j) }

// OnFinish registers fn to run exactly once with the final response,
// strictly before any waiter can observe the terminal event (through
// Wait or Recv); if the stream already finished, fn runs immediately on
// the caller's goroutine. Hooks run in registration order with the
// stream's internal lock held and must not call back into the stream or
// block (a cap-1 buffered channel send is fine). The cluster layer uses
// one to settle admission accounting without a per-request drain
// goroutine.
func (st *Stream) OnFinish(fn func(Response)) {
	j := st.j
	j.mu.Lock()
	if j.done {
		fn(j.final)
		j.mu.Unlock()
		return
	}
	j.onFinish = append(j.onFinish, fn)
	j.mu.Unlock()
}

// stepSamples is a replica-owned scratch staging one step's TTFT and ITL
// samples for the SLO engine, which observes all of a step's TTFTs before
// its ITLs (the engine evaluates after every observation, so the order
// fixes where breach markers land). The slices grow to the replica's
// batch-size high-water mark and are reused. A replica without an SLO
// engine stages nothing and holds a nil *stepSamples.
type stepSamples struct {
	ttfts []time.Duration
	itls  []time.Duration
}

// flush feeds the staged samples to eng (if any) at the step's virtual
// time and resets the scratch. It is a no-op on a nil scratch.
func (ss *stepSamples) flush(eng *slo.Engine, now time.Duration) {
	if ss == nil {
		return
	}
	if eng != nil {
		for _, v := range ss.ttfts {
			eng.ObserveLatency(slo.TTFT, v, now)
		}
		for _, v := range ss.itls {
			eng.ObserveLatency(slo.ITL, v, now)
		}
	}
	ss.ttfts = ss.ttfts[:0]
	ss.itls = ss.itls[:0]
}

// publishProgress pushes one running request's newly decoded state into
// its stream: token and accept slice headers advance under the job mutex,
// TTFT/ITL samples land in the replica's step scratch when it has one (a
// nil samples, a replica without an SLO engine, stages none), and a
// blocked Recv is woken. It no-ops when the step produced nothing for this request
// (tool-wait, KV-queued). Allocation-free in steady state — this runs for
// every running request at every step boundary.
func (s *Server) publishProgress(j *job, r *sched.Request, now time.Duration, samples *stepSamples) {
	gen := r.Response()
	if len(gen) == j.pubTok {
		return
	}
	newTok := len(gen) - j.pubTok
	if j.pubTok == 0 {
		j.firstTokV = now
		j.firstChunk = newTok
		// TTFT mirrors Latency's hybrid accounting: wall time since
		// enqueue (queueing) plus the request's virtual decode time from
		// admission to the step boundary that emitted the first chunk.
		j.ttft = time.Since(j.enqueued) + (now - r.AdmittedAt())
		if samples != nil {
			samples.ttfts = append(samples.ttfts, j.ttft)
		}
	} else if samples != nil {
		// One ITL sample per chunk, valued at the chunk's virtual gap
		// divided by the tokens it delivered — a per-token rate, not
		// per-token weighting (a 5-token chunk still contributes one
		// sample). Samples are taken as chunks stream, so a request that
		// is later cancelled still contributed the cadence it really
		// delivered at.
		gap := now - j.lastTokV
		samples.itls = append(samples.itls, gap/time.Duration(newTok))
	}
	j.lastTokV = now
	j.pubTok = len(gen)

	j.mu.Lock()
	if !j.done {
		// Publish and notify inside the critical section: a Fail-driven
		// terminal sets done under mu before closing notify, so seeing
		// done == false here guarantees the channel is still open. After a
		// forced terminal the stream's content is frozen; late replica
		// progress is dropped.
		j.tokens = gen
		j.accepts = r.AcceptLens
		select {
		case j.notify <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// finishJob publishes a job's terminal state, wakes every waiter, and
// settles the server's load and SLO accounting. admitted reports
// whether the job ever entered a batch (and thus holds an inflight
// charge). The dedup CAS lets it be called from racing paths (replica
// retirement vs. failover Fail); exactly one call delivers the terminal
// event, the rest are swallowed and counted. The winner owns the inflight
// release, so a losing replica must not release again.
func (s *Server) finishJob(j *job, resp Response, admitted bool, now time.Duration) {
	if !j.finished.CompareAndSwap(false, true) {
		s.dupSuppressed.Add(1)
		return
	}
	// Settle the server-level accounting before any waiter can observe
	// the terminal event: a client returning from Wait (or pulling the
	// Usage event) must find its request already reflected in the
	// Pending/Inflight probes and the SLO engine.
	if admitted {
		s.inflight.Add(-1)
	}
	// SLO availability stream: served = good, hard failure = bad. A client
	// cancellation is not a service failure, so it is not observed at all.
	if s.cfg.SLO != nil {
		switch {
		case resp.Err == nil:
			s.cfg.SLO.ObserveOutcome(true, now)
		case !errors.Is(resp.Err, context.Canceled):
			s.cfg.SLO.ObserveOutcome(false, now)
		}
	}

	j.mu.Lock()
	if r := j.sr.Load(); r != nil {
		j.tokens = r.Response()
		j.accepts = r.AcceptLens
	}
	j.final = resp
	// Hooks run inside the critical section that publishes done: a
	// consumer cannot observe the terminal event (Recv checks done under
	// mu) until their accounting has settled. OnFinish documents that
	// hooks must not call back into the stream.
	for _, fn := range j.onFinish {
		fn(resp)
	}
	j.onFinish = nil
	j.done = true
	j.mu.Unlock()
	close(j.term)
	close(j.notify)
}
