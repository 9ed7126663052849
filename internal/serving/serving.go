// Package serving implements the deployment scenario of paper §7: the
// drafter that TLT trained for free during RL is served with adaptive
// speculative decoding against the frozen policy. Unlike the rollout
// engine (which simulates one synchronous training worker), the server
// runs real concurrent replica goroutines with a shared request queue and
// reports each response's latency, TTFT and ITL — the shape of an online
// inference service.
//
// Replicas are continuous-batching step-loop workers over the
// iteration-level scheduler (internal/sched): each iteration a replica
// drains newly admitted requests from the shared queue into its batch (up
// to Config.MaxBatch), advances every inflight request one step through a
// single batched scoring pass, and retires finished requests at the step
// boundary — so a long request never blocks the short requests queued
// behind it, the property that separates iteration-level scheduling from
// run-to-completion serving. Every request decodes on its own seeded
// sampling stream, so its token stream is independent of what it happens
// to be batched with.
//
// The request surface is streaming-first: Server.Stream returns a
// pull-based session of token/accept/usage events with real mid-flight
// cancellation (see stream.go); Serve is a thin wrapper that drains one.
package serving

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/metrics"
	"fastrl/internal/model"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/slo"
	"fastrl/internal/trace"
	"fastrl/internal/workload"
)

// Config parameterises the server.
type Config struct {
	// Engine configures each replica's scheduler batch (device, SD
	// threshold, strategies).
	Engine sched.Config
	// Replicas is the number of concurrent model replicas (each one
	// step-loop worker goroutine with its own scheduler batch and virtual
	// clock).
	Replicas int
	// QueueDepth bounds the admission queue.
	QueueDepth int
	// MaxBatch caps the number of requests a replica keeps inflight in
	// its continuous batch (default 16, which the bitmap scheduler core
	// sustains at flat per-request step cost while staying inside the
	// engine's default SD regime). 1 degenerates to run-to-completion
	// serving: each request decodes alone, the pre-scheduler behaviour.
	// The scheduler's KV budget (Engine.KVBudgetBytes) still bounds the
	// per-step decoding set within the batch.
	MaxBatch int
	// AnswerID / EosID configure request control tokens.
	AnswerID int
	EosID    int
	// Cache, when non-nil, is the shard's shared radix prefix cache: every
	// replica engine consults it at prefill and inserts completed
	// sequences back. If the drafter learns online (draft.Observer, e.g.
	// the n-gram drafter) and the cache is already warm at construction —
	// a scaler re-promotion, a redeploy over surviving cache state — the
	// server replays the cache's harvested continuation statistics into it
	// once, so the shard starts with a hot drafter instead of relearning
	// its own traffic. Setting Engine.Cache directly is equivalent.
	Cache *prefixcache.Cache
	// Tracer, when non-nil, starts a lifecycle trace for every admitted
	// request (internal/trace); replicas record spans into it at step
	// boundaries. Nil (the default) keeps the hot paths untraced and
	// allocation-free.
	Tracer *trace.Tracer
	// Flight, when non-nil, mirrors every recorded span into this shard's
	// flight recorder — the postmortem ring the cluster health monitor
	// snapshots on faults.
	Flight *trace.FlightRecorder
	// SLO, when non-nil, receives this server's observation streams for
	// burn-rate evaluation (internal/slo): TTFT and per-chunk ITL samples
	// at step boundaries, request outcomes at terminal events. The cluster
	// passes each shard its own engine; nil (the default) keeps the hot
	// paths SLO-free at the cost of one pointer check.
	SLO *slo.Engine
	// ShardID labels this server's traces and flight records (the Chrome
	// export's process ID); the cluster sets it per shard.
	ShardID int
}

// Request is one serving job.
type Request struct {
	Prompt []int
	MaxNew int
	// Prior optionally shapes the response length.
	Prior workload.LengthPrior
	// Seed drives the per-request sampling stream.
	Seed int64
}

// Response is the served completion (the payload of a stream's terminal
// Usage event).
//
// Error reporting: on paths that return an explicit error — Serve,
// Stream.Wait — that error return is authoritative and Err merely mirrors
// it. Err carries the failure where no error return exists: the terminal
// Usage event and OnFinish hooks.
type Response struct {
	Tokens []int
	// ReqID is the scheduler request ID the serving layer assigned (unique
	// within one server) — the ID that the cluster's exemplar-linked
	// latency histograms and flight-recorder records carry, so a tail
	// percentile links back to this request's spans. Zero when the request
	// never entered a batch.
	ReqID int64
	// Latency is the modelled service latency: queueing (wall) plus the
	// replica's virtual decode time for this request.
	Latency time.Duration
	// DecodeTime is the virtual decode component alone.
	DecodeTime time.Duration
	// TTFT is time-to-first-token: queue wall time plus the virtual
	// decode time from admission to the step boundary that emitted the
	// first token chunk (zero if no token was ever produced).
	TTFT time.Duration
	// ITL is the request's mean inter-token latency in virtual time — the
	// span from the first token chunk to the last, spread over the tokens
	// delivered after the first chunk (zero for single-chunk responses).
	ITL time.Duration
	// AcceptLen is the mean SD accept length (0 without SD).
	AcceptLen float64
	// Err reports per-request failure; it is context.Canceled when the
	// request was cancelled mid-flight, in which case Tokens holds the
	// partial response. Where an explicit error is returned alongside the
	// Response, that error is the authoritative copy of this field.
	Err error
}

// ErrStopped is returned by Stream and Serve after a graceful Stop.
var ErrStopped = errors.New("serving: server stopped")

// ErrCrashed marks requests stranded by an injected (or detected) shard
// crash: the terminal Usage carries the partial tokens streamed before
// death with this error, and new submissions fail fast with it. The
// cluster failover layer keys resubmission off this sentinel.
var ErrCrashed = errors.New("serving: server crashed")

// Server is a concurrent SD inference service over a frozen target.
type Server struct {
	cfg     Config
	target  *model.LM
	drafter draft.Drafter
	queue   chan *job
	// inflight counts jobs a replica has dequeued but not yet answered;
	// together with the queue length it is the server's externally visible
	// load (the probe cluster routing policies weigh shards by).
	inflight atomic.Int64
	// reqSeq issues unique scheduler-request IDs across replicas, so
	// ID-keyed batch operations (sched.Batch.Cancel) address exactly one
	// request.
	reqSeq atomic.Int64
	wg     sync.WaitGroup
	// stopMu serialises queue sends against Stop closing the queue: Stream
	// holds the read side across its send (replicas drain the queue without
	// taking the lock, so a blocked send always completes), Stop takes the
	// write side before close. Without it a Stream racing Stop could send
	// on a closed channel.
	stopMu  sync.RWMutex
	stopped bool
	// Fault-injection surface (chaos testing and failover drills). crashed
	// flips once, at most; hung gates the replica step loops in a poll that
	// only crash releases; stall adds a wall-clock delay (ns) per step to
	// model a slow shard; steps counts completed scheduler steps across
	// replicas — the liveness signal hang detection watches; dupSuppressed
	// counts terminal events swallowed by the per-job delivery dedup.
	crashed       atomic.Bool
	hung          atomic.Bool
	stall         atomic.Int64
	steps         atomic.Int64
	dupSuppressed atomic.Int64
	// reg is the shard's metrics registry: the sched/* counters its
	// replica batches feed, the cache probes and the load gauges. Request
	// outcomes and latencies are recorded once, by the cluster.
	reg *metrics.Registry
}

// New builds a server. drafter may be nil (vanilla decoding).
func New(cfg Config, target *model.LM, drafter draft.Drafter) (*Server, error) {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatch < 1 {
		// The default co-batching window is 16 because the default
		// engine's SDThreshold is 32: a default worth of co-batched
		// requests should stay comfortably inside the speculative-decoding
		// regime rather than silently tipping replicas into vanilla mode.
		cfg.MaxBatch = 16
	}
	if cfg.Engine.Device == nil {
		return nil, fmt.Errorf("serving: engine device required")
	}
	if cfg.Cache == nil {
		cfg.Cache = cfg.Engine.Cache
	} else {
		cfg.Engine.Cache = cfg.Cache
	}
	if obs, ok := drafter.(draft.Observer); ok && cfg.Cache != nil {
		// Drafter warm-start: a server attached to an already-warm cache
		// inherits its traffic's continuation statistics immediately.
		cfg.Cache.WarmStart(obs)
	}
	s := &Server{
		cfg:     cfg,
		target:  target,
		drafter: drafter,
		queue:   make(chan *job, cfg.QueueDepth),
		reg:     metrics.NewRegistry(),
	}
	// Point-in-time probes: atomic loads and leaf locks only, as the
	// registry's snapshot contract requires.
	s.reg.Gauge("queue_len", func() float64 { return float64(s.QueueLen()) })
	s.reg.Gauge("inflight", func() float64 { return float64(s.Inflight()) })
	s.reg.Gauge("steps", func() float64 { return float64(s.StepCount()) })
	s.reg.Gauge("dup_suppressed", func() float64 { return float64(s.DupSuppressed()) })
	if s.cfg.Cache != nil {
		s.cfg.Cache.RegisterMetrics(s.reg, "cache/")
	}
	// Replica schedulers feed the sched/* counters of the same registry.
	s.cfg.Engine.Metrics = s.reg
	for r := 0; r < cfg.Replicas; r++ {
		s.wg.Add(1)
		go s.replica(r)
	}
	return s, nil
}

// Registry exposes the shard's metrics registry: the replicas' sched/*
// counters, the cache probes and the load gauges. Snapshot it for a
// consistent cross-counter view.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Flight returns the shard's flight recorder (nil unless configured).
func (s *Server) Flight() *trace.FlightRecorder { return s.cfg.Flight }

// replica is one continuous-batching serving worker: it owns a scheduler
// batch and step-loops over it, draining the shared admission queue into
// the batch at every iteration boundary, publishing every running
// request's new tokens into its stream at the same granularity, and
// retiring finished (or cancelled) requests at step boundaries.
func (s *Server) replica(id int) {
	defer s.wg.Done()
	batch, err := sched.New(s.cfg.Engine, s.target, s.drafter)
	if err != nil {
		// Configuration errors surface on every job this replica takes.
		for j := range s.queue {
			if j.claimed.CompareAndSwap(false, true) {
				s.finishJob(j, Response{Err: err}, false, 0)
			}
		}
		return
	}
	// Shared fallback stream for Batch.Step; never drawn from, since every
	// admitted request carries its own seeded RNG.
	rng := rand.New(rand.NewSource(0x5eed ^ int64(id)))
	// running tracks the jobs inside this replica's batch so each step can
	// publish their stream progress; samples stages the step's TTFT/ITL
	// observations for the SLO feed, and stays nil without an SLO engine.
	running := make([]*job, 0, s.cfg.MaxBatch)
	var samples *stepSamples
	if s.cfg.SLO != nil {
		samples = &stepSamples{
			ttfts: make([]time.Duration, 0, s.cfg.MaxBatch),
			itls:  make([]time.Duration, 0, s.cfg.MaxBatch),
		}
	}

	admit := func(j *job) {
		if !j.claimed.CompareAndSwap(false, true) {
			// A canceller already claimed and finished this job while it
			// sat in the queue; drop it.
			return
		}
		if j.cancelReq.Load() {
			// Cancelled while queued: the request retires without ever
			// entering a batch — no prefill, no KV, no slot.
			s.finishJob(j, Response{Err: context.Canceled}, false, 0)
			return
		}
		s.inflight.Add(1)
		r := sched.NewRequest(int(s.reqSeq.Add(1)), j.req.Prompt, j.req.MaxNew, j.req.Prior, s.cfg.AnswerID, s.cfg.EosID)
		if s.cfg.Tracer != nil {
			r.Trace = s.cfg.Tracer.Start(int64(r.ID), int32(s.cfg.ShardID), s.cfg.Flight)
		}
		// A private sampling stream per request: its tokens do not depend
		// on what it is batched with or when it joined the batch.
		r.RNG = rand.New(rand.NewSource(j.req.Seed))
		r.Tag = j
		j.sr.Store(r)
		if j.cancelReq.Load() {
			// A cancel that raced admission: make sure the batch sees it.
			r.Cancel()
		}
		batch.Admit(r)
		running = append(running, j)
	}

	open := true
	for {
		if batch.ActiveCount() == 0 {
			if !open {
				return
			}
			j, ok := <-s.queue
			if !ok {
				return
			}
			admit(j)
		}
		// Continuous batching: fold every queued request into the batch at
		// this step boundary, up to the batch cap — new work joins mid-
		// flight instead of waiting for the running requests to finish.
	drain:
		for open && batch.ActiveCount() < s.cfg.MaxBatch {
			select {
			case j, ok := <-s.queue:
				if !ok {
					open = false
					break drain
				}
				admit(j)
			default:
				break drain
			}
		}
		// Fault checkpoints, evaluated at step boundaries only — a crash or
		// hang never lands mid-step, so the scheduler's state stays exactly
		// what the last completed step published (the failover layer's
		// "precise state" guarantee). They sit after admission and before
		// the step, with the stall first, so work admitted while a fault was
		// landing never decodes under it: the stall delays every step
		// (including a request's first), and a hang or crash arriving during
		// the stall is observed before the step runs — a hang freezes the
		// loop until Unhang or the health monitor escalates it to a crash.
		if d := s.stall.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		for s.hung.Load() && !s.crashed.Load() {
			time.Sleep(200 * time.Microsecond)
		}
		if s.crashed.Load() {
			s.crashReplica(batch, rng, running)
			return
		}
		batch.Step(rng)
		s.steps.Add(1)
		now := batch.Clock.Now()
		retired := batch.Retire()
		// Publish the step's progress — retiring requests first, so their
		// final chunk (and its TTFT/ITL bookkeeping) lands before the
		// terminal event — then feed the step's TTFT/ITL samples to the SLO
		// engine before the terminal events observe their outcomes.
		for _, r := range retired {
			s.publishProgress(r.Tag.(*job), r, now, samples)
		}
		for _, r := range retired {
			j := r.Tag.(*job)
			for i, rj := range running {
				if rj == j {
					copy(running[i:], running[i+1:])
					// Clear the vacated tail slot so the retired job is
					// not pinned by the backing array (the sched package's
					// convention for its inflight list).
					running[len(running)-1] = nil
					running = running[:len(running)-1]
					break
				}
			}
		}
		for _, j := range running {
			s.publishProgress(j, j.sr.Load(), now, samples)
		}
		samples.flush(s.cfg.SLO, now)
		for _, r := range retired {
			j := r.Tag.(*job)
			// Per-request accept length is exact: it is computed from the
			// request's own accepted rounds, not whole-engine statistics
			// that would smear co-batched requests together.
			resp := Response{
				Tokens:     r.Response(),
				ReqID:      int64(r.ID),
				DecodeTime: r.DecodeTime(),
				Latency:    time.Since(j.enqueued) + r.DecodeTime(),
				TTFT:       j.ttft,
				AcceptLen:  r.MeanAcceptLen(),
			}
			if gen := len(resp.Tokens); gen > j.firstChunk && j.lastTokV > j.firstTokV {
				resp.ITL = (j.lastTokV - j.firstTokV) / time.Duration(gen-j.firstChunk)
			}
			if r.Cancelled() {
				resp.Err = context.Canceled
			}
			s.finishJob(j, resp, true, now)
		}
	}
}

// crashReplica is a replica's death throes: every running request is
// cancelled and swept out of the batch at one final step boundary —
// releasing KV charges, batch slots, and prefix-cache pins exactly like a
// client cancellation — and its terminal event delivers the partial tokens
// with ErrCrashed. Jobs still in the (closed) admission queue are claimed
// and failed the same way. Terminal delivery goes through finishJob's
// dedup CAS, so a request the failover layer already failed (or that
// completed during the crash) never emits twice.
func (s *Server) crashReplica(batch *sched.Batch, rng *rand.Rand, running []*job) {
	for _, j := range running {
		if r := j.sr.Load(); r != nil {
			r.Cancel()
		}
	}
	// One sweep step retires every cancelled request without decoding.
	batch.Step(rng)
	now := batch.Clock.Now()
	retired := batch.Retire()
	for _, r := range retired {
		j := r.Tag.(*job)
		s.finishJob(j, Response{Tokens: r.Response(), ReqID: int64(r.ID), Err: ErrCrashed}, true, now)
	}
	// Crash implies shutdown closed the queue; strand whatever is left.
	for j := range s.queue {
		if j.claimed.CompareAndSwap(false, true) {
			s.finishJob(j, Response{Err: ErrCrashed}, false, now)
		}
	}
}

// Crash kills the server abruptly at the replicas' next step boundaries:
// inflight requests terminate with their partial tokens and ErrCrashed,
// queued requests fail with ErrCrashed, and new submissions fail fast.
// Idempotent, and safe concurrently with Stop (the first caller picks the
// mode; both block until the replicas exit). A hung server can be crashed —
// that is how the health monitor reclaims its goroutines.
func (s *Server) Crash() { s.shutdown(true) }

// Stop drains the queue and shuts the replicas down gracefully: admitted
// work completes and queued work is served before the replicas exit.
// Idempotent and safe to call concurrently with Crash or another Stop.
func (s *Server) Stop() { s.shutdown(false) }

func (s *Server) shutdown(crash bool) {
	s.stopMu.Lock()
	if s.stopped {
		s.stopMu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopped = true
	if crash {
		s.crashed.Store(true)
	}
	s.stopMu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// Hang freezes every replica's step loop at its next step boundary: the
// server keeps its inflight requests but makes no progress and emits no
// events — the failure mode a liveness monitor has to detect by watching
// StepCount. Only Unhang or Crash releases a hung server.
func (s *Server) Hang() { s.hung.Store(true) }

// Unhang releases a Hang; the replicas resume stepping where they froze.
func (s *Server) Unhang() { s.hung.Store(false) }

// SetStall adds a per-step wall-clock delay to every replica, modelling a
// degraded (slow) shard; 0 restores full speed.
func (s *Server) SetStall(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.stall.Store(int64(d))
}

// StepCount returns the total scheduler steps completed across replicas —
// a monotone liveness probe (a hung server's count stops advancing while
// Inflight stays non-zero).
func (s *Server) StepCount() int64 { return s.steps.Load() }

// Crashed reports whether the server died by Crash.
func (s *Server) Crashed() bool { return s.crashed.Load() }

// DupSuppressed returns how many terminal events the per-request delivery
// dedup swallowed (each one a would-have-been duplicate delivery).
func (s *Server) DupSuppressed() int64 { return s.dupSuppressed.Load() }

// QueueLen returns the number of admitted jobs not yet picked up by a
// replica.
func (s *Server) QueueLen() int { return len(s.queue) }

// Inflight returns the number of jobs currently being decoded by replicas.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Pending returns the total outstanding jobs (queued + inflight), the load
// signal used by queue-depth-weighted routing.
func (s *Server) Pending() int { return s.QueueLen() + s.Inflight() }

// Replicas returns the configured replica count (the shard's service
// parallelism, used to convert queue depth into an expected wait).
func (s *Server) Replicas() int { return s.cfg.Replicas }

// Cache returns the shard's prefix cache (nil when caching is disabled).
func (s *Server) Cache() *prefixcache.Cache { return s.cfg.Cache }

// CacheHitRate is the shard's prefill cache hit rate probe (0 without a
// cache or before the first lookup).
func (s *Server) CacheHitRate() float64 {
	if s.cfg.Cache == nil {
		return 0
	}
	return s.cfg.Cache.HitRate()
}

// CacheResidentBytes is the shard's resident cache-footprint probe.
func (s *Server) CacheResidentBytes() int64 {
	if s.cfg.Cache == nil {
		return 0
	}
	return s.cfg.Cache.ResidentBytes()
}

// Stream enqueues a request and returns its streaming session — the
// primary request path (Serve is a wrapper over it). It fails
// fast when ctx is already cancelled, the queue send would block past a
// cancellation, or the server is stopped. The returned stream delivers
// token chunks at step boundaries, per-round accept updates, and exactly
// one terminal Usage event; cancelling ctx (or calling Stream.Cancel)
// retires the request at the replica's next step boundary, freeing its
// batch slot, KV charge, and prefix-cache pins.
func (s *Server) Stream(ctx context.Context, req Request) (*Stream, error) {
	s.stopMu.RLock()
	defer s.stopMu.RUnlock()
	if s.stopped {
		if s.crashed.Load() {
			return nil, ErrCrashed
		}
		return nil, ErrStopped
	}
	// A dead caller must not consume a queue slot: without this check the
	// select below chooses arbitrarily between a ready queue and a
	// ready Done channel, so an already-cancelled context could still
	// enqueue (and, on a full queue, block forever pre-redesign).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j := newJob(req)
	select {
	case s.queue <- j:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	st := &Stream{srv: s, j: j, ctx: ctx}
	if done := ctx.Done(); done != nil {
		// The watcher propagates a context cancellation even when nobody
		// is blocked in Recv/Wait (a caller that walked away); it exits
		// at the terminal event.
		go func() {
			select {
			case <-done:
				s.cancelJob(j)
			case <-j.term:
			}
		}()
	}
	return st, nil
}

// Serve submits and waits for completion — a wrapper that drains a
// Stream. The returned error is authoritative (Response.Err mirrors it);
// on mid-flight cancellation it returns the partial response together
// with context.Canceled.
func (s *Server) Serve(ctx context.Context, req Request) (Response, error) {
	st, err := s.Stream(ctx, req)
	if err != nil {
		return Response{}, err
	}
	return st.Wait()
}
