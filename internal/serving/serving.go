// Package serving implements the deployment scenario of paper §7: the
// drafter that TLT trained for free during RL is served with adaptive
// speculative decoding against the frozen policy. Unlike the rollout
// engine (which simulates one synchronous training worker), the server
// runs real concurrent replica goroutines with a shared request queue and
// reports latency percentiles — the shape of an online inference service.
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
// cancellation (see stream.go); Submit and Serve are thin wrappers that
// drain one.
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
// it. Err exists for the channel path (Submit), which has no error return
// of its own; callers holding an error return should use it and ignore
// Err.
type Response struct {
	Tokens []int
	// ReqID is the scheduler request ID the serving layer assigned (unique
	// within one server) — the ID that exemplar-linked latency histograms
	// and flight-recorder records carry, so a tail percentile links back to
	// this request's spans. Zero when the request never entered a batch.
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
	// Err reports per-request failure on the channel path (Submit); it is
	// context.Canceled when the request was cancelled mid-flight, in which
	// case Tokens holds the partial response. Where an explicit error is
	// returned alongside the Response, that error is the authoritative
	// copy of this field.
	Err error
}

// ErrStopped is returned by Stream/Submit/Serve after a graceful Stop.
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
	// stopMu serialises queue sends against Stop closing the queue: Submit
	// holds the read side across its send (replicas drain the queue without
	// taking the lock, so a blocked send always completes), Stop takes the
	// write side before close. Without it a Submit racing Stop could send
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
	mu            sync.Mutex
	// lats/ttfts/itls are the server's exemplar-linked latency histograms
	// (fixed-shape log buckets, see metrics.Histogram): lats records one
	// end-to-end latency per served request, ttfts one time-to-first-token
	// per request, itls one sample per streamed chunk, fed by the replicas'
	// event publishing. Exemplars are scheduler request IDs, so a tail
	// bucket links straight to this shard's flight-recorder records and
	// trace spans.
	lats  *metrics.Histogram
	ttfts *metrics.Histogram
	itls  *metrics.Histogram
	// reg is the server's unified metrics registry. Outcome counters are
	// written in registry Update groups, so one Snapshot reads mutually
	// consistent counts — served + cancelled + errored never exceeds
	// submitted in any snapshot, not just at quiescence (the torn-stats
	// fix). Lock order: registry before s.mu, never the reverse.
	reg        *metrics.Registry
	cSubmitted *metrics.Counter
	cServed    *metrics.Counter
	cCancelled *metrics.Counter
	cErrored   *metrics.Counter
	// Warm-ingest queue: cache-fabric replications enqueued here are
	// applied to the shard's prefix cache by a replica at its next step
	// boundary — never mid-step, same discipline as fault injection.
	// warmPending keeps the step loop's check to one atomic load, so the
	// path is free when no fabric feeds it.
	warmMu      sync.Mutex
	warmQ       []warmItem
	warmPending atomic.Bool
	cIngested   *metrics.Counter
	cIngestDrop *metrics.Counter
}

// warmItem is one queued replication: the exported prefix plus the
// fabric's confirmation callback, invoked after the import lands.
type warmItem struct {
	prefix    prefixcache.ExportedPrefix
	onApplied func()
}

// warmQueueDepth bounds the warm-ingest queue; replications beyond it
// are dropped (and counted) rather than growing without bound — the
// fabric reschedules them on a later tick.
const warmQueueDepth = 256

// New builds a server. drafter may be nil (vanilla decoding).
func New(cfg Config, target *model.LM, drafter draft.Drafter) (*Server, error) {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatch < 1 {
		// The bitmap scheduler core keeps per-step selection cost flat in
		// batch width (sched/batch-step-64 tracks batch-step-8 per-request
		// in BENCH), so the default co-batching window is 16, not the 8
		// the slice-scan core shipped with. Not higher: the default
		// engine's SDThreshold is 32, and a default worth of co-batched
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
		lats:    metrics.NewHistogram(),
		ttfts:   metrics.NewHistogram(),
		itls:    metrics.NewHistogram(),
		reg:     metrics.NewRegistry(),
	}
	s.cSubmitted = s.reg.Counter("submitted")
	s.cServed = s.reg.Counter("served")
	s.cCancelled = s.reg.Counter("cancelled")
	s.cErrored = s.reg.Counter("errored")
	s.cIngested = s.reg.Counter("fabric/ingested")
	s.cIngestDrop = s.reg.Counter("fabric/ingest_dropped")
	// Point-in-time probes: atomic loads and leaf locks only, as the
	// registry's snapshot contract requires.
	s.reg.Gauge("queue_len", func() float64 { return float64(s.QueueLen()) })
	s.reg.Gauge("inflight", func() float64 { return float64(s.Inflight()) })
	s.reg.Gauge("steps", func() float64 { return float64(s.StepCount()) })
	s.reg.Gauge("dup_suppressed", func() float64 { return float64(s.DupSuppressed()) })
	s.reg.HistogramFunc("latency", func() *metrics.Histogram { s.mu.Lock(); defer s.mu.Unlock(); return s.lats.Clone() })
	s.reg.HistogramFunc("ttft", func() *metrics.Histogram { s.mu.Lock(); defer s.mu.Unlock(); return s.ttfts.Clone() })
	s.reg.HistogramFunc("itl", func() *metrics.Histogram { s.mu.Lock(); defer s.mu.Unlock(); return s.itls.Clone() })
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

// Registry exposes the server's unified metrics registry. Snapshot it
// for a consistent cross-counter view; Stats is a typed convenience over
// the same snapshot.
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
	// The replica owns its batch until it exits, on every path (drain,
	// crash); closing it stops the batch's pipeline workers.
	defer batch.Close()
	// Shared fallback stream for Batch.Step; never drawn from, since every
	// admitted request carries its own seeded RNG.
	rng := rand.New(rand.NewSource(0x5eed ^ int64(id)))
	// running tracks the jobs inside this replica's batch so each step can
	// publish their stream progress; samples batches the step's TTFT/ITL
	// histogram records into one stats-lock acquisition.
	running := make([]*job, 0, s.cfg.MaxBatch)
	samples := &stepSamples{
		ttfts: make([]latSample, 0, s.cfg.MaxBatch),
		itls:  make([]latSample, 0, s.cfg.MaxBatch),
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
		// Cache-fabric ingest, applied at step boundaries only (same
		// contract as fault checkpoints): replicated prefixes land before
		// the step, so a request admitted this iteration already prefills
		// against them, and never mid-step.
		if s.warmPending.Load() {
			s.drainWarm(batch.Clock.Now())
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
		// terminal event — then fold the step's SLO samples into the
		// histograms before any terminal event wakes a client: a caller
		// returning from Wait must find its samples already in Stats.
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
		samples.flush(s, now)
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

// TailHistograms returns clones of the latency and TTFT histograms, for
// exact bucket-wise merging into cluster-level tail percentiles.
// metrics.Histogram.Merge is deterministic and order-independent, so
// merged p99.9s do not drift run to run — and the merged tail buckets
// keep their exemplar request IDs.
func (s *Server) TailHistograms() (lats, ttfts *metrics.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lats.Clone(), s.ttfts.Clone()
}

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

// EnqueueWarm queues one cache-fabric replication for ingest at the next
// step boundary. It returns false — and the replication must be
// considered dropped — when the shard has no cache, has crashed, or the
// warm queue is full. onApplied (optional) runs on the replica goroutine
// right after the prefix is imported.
func (s *Server) EnqueueWarm(p prefixcache.ExportedPrefix, onApplied func()) bool {
	if s.cfg.Cache == nil || s.crashed.Load() {
		return false
	}
	s.warmMu.Lock()
	if len(s.warmQ) >= warmQueueDepth {
		s.warmMu.Unlock()
		s.cIngestDrop.Inc()
		return false
	}
	s.warmQ = append(s.warmQ, warmItem{prefix: p, onApplied: onApplied})
	s.warmPending.Store(true)
	s.warmMu.Unlock()
	return true
}

// drainWarm applies every queued replication to the shard cache, records
// a KindReplicate marker per import into the flight recorder, and fires
// the confirmation callbacks. Called from a replica at a step boundary;
// the queue swap keeps the lock off the import work.
func (s *Server) drainWarm(now time.Duration) {
	s.warmMu.Lock()
	items := s.warmQ
	s.warmQ = nil
	s.warmPending.Store(false)
	s.warmMu.Unlock()
	for _, it := range items {
		s.cfg.Cache.Import(it.prefix)
		s.cIngested.Inc()
		if s.cfg.Flight != nil {
			s.cfg.Flight.Record(trace.Record{
				ReqID: -1,
				Shard: int32(s.cfg.ShardID),
				Kind:  trace.KindReplicate,
				Start: now,
				End:   now,
				Arg:   int64(len(it.prefix.Tokens)),
			})
		}
		if it.onApplied != nil {
			it.onApplied()
		}
	}
}

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
// primary request path (Submit and Serve are wrappers over it). It fails
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
	// Count the submission before the queue send: a replica may dequeue
	// and finish the job the instant it lands, and the terminal counters
	// must never lead the submission counter in a snapshot. The rare
	// failed send below retracts the count in an Update group.
	s.cSubmitted.Inc()
	select {
	case s.queue <- j:
	case <-ctx.Done():
		s.reg.Update(func() { s.cSubmitted.Add(-1) })
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

// Submit enqueues a request and returns a channel delivering its
// response — a wrapper that drains a Stream to its terminal event. On
// this path Response.Err is the only failure signal (see Response);
// cancelling ctx after a successful Submit delivers the partial response
// with Err = context.Canceled.
func (s *Server) Submit(ctx context.Context, req Request) (<-chan Response, error) {
	st, err := s.Stream(ctx, req)
	if err != nil {
		return nil, err
	}
	ch := make(chan Response, 1)
	// Goroutine-free delivery: the terminal hook fires exactly once and
	// the buffered send cannot block.
	st.OnFinish(func(r Response) { ch <- r })
	return ch, nil
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

// Stats summarises served traffic.
type Stats struct {
	// Submitted counts requests accepted into the admission queue. In any
	// Stats value Served + Cancelled + Errored ≤ Submitted, with equality
	// at quiescence — the counters come from one registry snapshot, so
	// they can never tear against each other.
	Submitted int
	Served    int
	// Errored counts requests that terminated with a hard failure
	// (replica configuration errors) — excluded from the percentiles
	// like cancellations, but never silently dropped from the counters.
	Errored int
	// Cancelled counts requests retired through the cancellation path.
	// They are excluded from the end-to-end latency percentiles (P50/P95
	// sample only completed responses), but the chunks they streamed
	// before cancellation still contribute TTFT/ITL samples — those
	// latencies were really delivered. The cluster layer, which samples
	// once per completed request instead of per chunk, excludes cancelled
	// requests from its TTFT/ITL percentiles entirely.
	Cancelled int
	P50       time.Duration
	P95       time.Duration
	// TTFTP50/TTFTP95 are time-to-first-token percentiles; ITLP50/ITLP95
	// are inter-token latency percentiles over per-chunk samples (each
	// streamed chunk contributes one sample: its virtual gap divided by
	// its token count).
	TTFTP50 time.Duration
	TTFTP95 time.Duration
	ITLP50  time.Duration
	ITLP95  time.Duration
}

// Stats returns latency percentiles over everything served so far, read
// from the server's log-bucket histograms (quantiles exact to within the
// 12.5% bucket width, deterministic — no sampling). All counters come
// from one registry snapshot, so they are mutually consistent even while
// replicas are retiring requests concurrently.
func (s *Server) Stats() Stats {
	snap := s.reg.Snapshot()
	lat, ttft, itl := snap.Histogram("latency"), snap.Histogram("ttft"), snap.Histogram("itl")
	return Stats{
		Submitted: int(snap.Counter("submitted")),
		Served:    int(snap.Counter("served")),
		Errored:   int(snap.Counter("errored")),
		Cancelled: int(snap.Counter("cancelled")),
		P50:       time.Duration(lat.P50),
		P95:       time.Duration(lat.P95),
		TTFTP50:   time.Duration(ttft.P50),
		TTFTP95:   time.Duration(ttft.P95),
		ITLP50:    time.Duration(itl.P50),
		ITLP95:    time.Duration(itl.P95),
	}
}
