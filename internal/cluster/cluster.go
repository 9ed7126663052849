// Package cluster scales the single-queue serving.Server of paper §7 into
// a sharded serving cluster: a front-door router spreads requests over
// independent shards (each a serving.Server with its own replicas and
// rollout engines) under a pluggable Policy, per-shard admission control
// sheds load with typed, retryable errors instead of unbounded queueing,
// and an elastic scaler reuses the coordinator's worker state machine to
// move shards between SERVING, IDLE, and drafter TRAINING as offered load
// rises and falls — so speculative-decoding spot training and serving
// compete for the same capacity, exactly as in the paper's deployment.
//
// The request surface is streaming-first: Cluster.Stream routes a
// streaming session to a shard and propagates cancellation back to it;
// Submit and Serve are thin wrappers that drain one.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fastrl/internal/cachefabric"
	"fastrl/internal/coordinator"
	"fastrl/internal/draft"
	"fastrl/internal/metrics"
	"fastrl/internal/model"
	"fastrl/internal/prefixcache"
	"fastrl/internal/serving"
	"fastrl/internal/slo"
	"fastrl/internal/spot"
	"fastrl/internal/trace"
	"fastrl/internal/workload"
)

// Request is one cluster serving job.
type Request struct {
	Prompt []int
	MaxNew int
	// Prior optionally shapes the response length.
	Prior workload.LengthPrior
	// Seed drives the per-request sampling stream.
	Seed int64
	// Deadline is the request's latency budget; admission control sheds
	// the request when the routed shard cannot plausibly meet it. Zero
	// disables deadline shedding (queue-bound shedding still applies).
	Deadline time.Duration
}

// Response is a served completion plus which shard served it. Error
// reporting follows serving.Response: Serve's (and Stream.Wait's) error
// return is authoritative, Err exists for the channel path (Submit).
type Response struct {
	serving.Response
	Shard int
}

// Config parameterises the cluster.
type Config struct {
	// Shards is the number of independent serving shards.
	Shards int
	// Shard configures every shard's serving.Server (replicas, engine).
	Shard serving.Config
	// Policy is the routing policy (default round-robin).
	Policy Policy
	// Admission bounds each shard's backlog.
	Admission AdmissionConfig
	// Scaler drives elastic SERVING/IDLE/TRAINING transitions.
	Scaler ScalerConfig
	// Caches, when non-nil, holds one prefix cache per shard (indexed by
	// shard ID, length Shards): shard i's replicas share Caches[i] for
	// prefill reuse and drafter warm-start. Pass the same slice to
	// NewCacheAware to make routing cache-aware. NewShardCaches builds a
	// uniformly-budgeted set.
	Caches []*prefixcache.Cache
	// Fabric, when non-nil, builds the cluster cache fabric over Caches
	// (which must then be set): a prefix directory maintained from the
	// per-shard cache stats, hot-prefix replication driven by FabricTick
	// and applied by shards at their own step boundaries, and
	// directory-driven warm handoff on revival and scaler promotion. Pass
	// the fabric (Cluster.Fabric) to NewFabricAware to route against the
	// directory. Nil — the default — keeps the cluster byte-identical to
	// one without a fabric.
	Fabric *cachefabric.Config
	// Failover configures dead-shard failover (see FailoverConfig); the
	// zero value disables it.
	Failover FailoverConfig
	// Tracer, when non-nil, traces every request routed through the
	// cluster: each shard's serving.Server starts a lifecycle trace at
	// admission, stamped with the shard ID and mirrored into that shard's
	// flight-recorder ring.
	Tracer *trace.Tracer
	// FlightSlots is the per-shard flight-recorder ring capacity (rounded
	// up to a power of two). Default 1024. The rings exist regardless of
	// Tracer — fault-injection events always land in them, so every chaos
	// fault leaves a postmortem capture even with request tracing off.
	FlightSlots int
	// SLO declares the cluster's service-level objectives (internal/slo).
	// Every shard gets its own burn-rate engine fed by its serving layer
	// (TTFT and per-chunk ITL at step boundaries, outcomes at terminal
	// events); breaches emit trace.KindSLOBreach markers into that shard's
	// flight-recorder ring, and admission can shed earlier while the fast
	// window burns (AdmissionConfig.BurnShed). Empty (the default)
	// disables SLO evaluation entirely.
	SLO []slo.Spec
}

// NewShardCaches builds n independent prefix caches with a shared config,
// ready to pass to Config.Caches and NewCacheAware.
func NewShardCaches(n int, cfg prefixcache.Config) []*prefixcache.Cache {
	out := make([]*prefixcache.Cache, n)
	for i := range out {
		out[i] = prefixcache.New(cfg)
	}
	return out
}

// shard is one serving shard plus its admission and accounting state.
type shard struct {
	id int
	// srv is an atomic pointer because revival swaps in a freshly built
	// server after a crash; readers take one load and work against that
	// snapshot.
	srv atomic.Pointer[serving.Server]
	// cache is the shard's prefix cache (nil without per-shard caches),
	// kept here so revival can wipe and re-warm it.
	cache *prefixcache.Cache
	// state mirrors the coordinator's view (coordinator.Busy == SERVING);
	// the router reads it lock-free on every pick.
	state atomic.Int32
	// outstanding is the admission reservation counter: incremented before
	// a request may enqueue, decremented on completion (or on shed /
	// submit failure). Concurrent submits each reserve atomically, so the
	// MaxPending cap cannot be over-admitted by a check-then-act race the
	// way a raw Pending() probe could.
	outstanding atomic.Int64
	// cAdmitted/cShed/cServed count this shard's admission outcomes in the
	// cluster registry ("shard<i>/admitted" etc). Admission increments
	// cAdmitted with a bare atomic Inc before the shard stream opens;
	// terminal outcomes land inside registry Update groups, so a registry
	// Snapshot never observes outcomes leading admissions.
	cAdmitted *metrics.Counter
	cShed     *metrics.Counter
	cServed   *metrics.Counter
	// flight is the shard's bounded flight-recorder ring: recent request
	// spans (when tracing is on) plus every injected/detected fault event.
	// Cluster-owned, so it survives crash/revival and the postmortem of a
	// dying shard includes the spans recorded right up to the kill.
	flight *trace.FlightRecorder
	// slo is the shard's burn-rate engine (nil without Config.SLO).
	// Cluster-owned like the flight ring, so a revived shard keeps burning
	// the same error budget its previous incarnation torched.
	slo *slo.Engine
	// svcBits holds the EWMA per-request service time in seconds
	// (math.Float64bits), updated on every completion.
	svcBits atomic.Uint64
	// stateTime accumulates observed time per coordinator state; guarded
	// by the scaler's mutex.
	stateTime [coordinator.NumStates]time.Duration
}

// server returns the shard's current serving.Server. The pointer is never
// nil after construction.
func (sh *shard) server() *serving.Server { return sh.srv.Load() }

func (sh *shard) svcEstimate() time.Duration {
	return time.Duration(math.Float64frombits(sh.svcBits.Load()) * float64(time.Second))
}

// Cluster is a sharded SD serving service over one frozen target.
type Cluster struct {
	cfg    Config
	shards []*shard
	scaler *Scaler
	// fabric is the cluster cache fabric (nil unless Config.Fabric).
	fabric *cachefabric.Fabric
	// target/drafter are kept so a dead shard can be rebuilt on revival.
	target  *model.LM
	drafter draft.Drafter

	// reg is the cluster's unified metrics registry: per-shard admission
	// counters, cluster-wide outcome counters, and the latency histograms,
	// all readable through one consistent Snapshot. Lock order: registry
	// lock strictly before statsMu (Update groups and the registered
	// histogram/gauge providers nest statsMu inside).
	reg *metrics.Registry
	// cCancelled/cErrored/cFailovers/cDup are the cluster-wide outcome
	// counters. dup_deliveries counts terminal events a client actually
	// received twice for one logical request (must stay 0 — the chaos
	// experiment asserts it).
	cCancelled *metrics.Counter
	cErrored   *metrics.Counter
	cFailovers *metrics.Counter
	cDup       *metrics.Counter

	// failMu guards the failover-session registry and the recorded drafter
	// checkpoint.
	failMu   sync.Mutex
	sessions map[*foSession]int
	ckpt     *spot.Checkpointer
	ckptPath string

	// pmMu guards the bounded postmortem log (see capturePostmortem).
	pmMu        sync.Mutex
	postmortems []Postmortem

	// routeMu serialises routing decisions so the live/load snapshot
	// buffers are reused allocation-free across picks.
	routeMu sync.Mutex
	liveBuf []int
	loadBuf []int

	// statsMu guards the cluster-wide latency/TTFT/ITL histograms and the
	// accept-length accumulator. The TTFT and ITL histograms take one
	// sample per completed request (serving.Response.TTFT / .ITL — the
	// per-request mean ITL), since per-chunk samples live in the shard
	// they streamed from; exemplars are serving request IDs (unique within
	// one shard).
	statsMu   sync.Mutex
	lats      *metrics.Histogram
	ttfts     *metrics.Histogram
	itls      *metrics.Histogram
	acceptSum float64
	acceptN   int

	stopped atomic.Bool
}

// New builds a cluster of cfg.Shards serving shards over a shared target
// and drafter. drafter may be nil (vanilla decoding on every shard).
func New(cfg Config, target *model.LM, drafter draft.Drafter) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least one shard")
	}
	if cfg.Policy == nil && cfg.Fabric == nil {
		// With a fabric configured, a nil policy instead defaults to
		// fabric-aware routing over the directory — resolved below, once
		// the fabric exists.
		cfg.Policy = NewRoundRobin()
	}
	cfg.Admission = cfg.Admission.withDefaults()
	cfg.Scaler = cfg.Scaler.withDefaults(cfg.Shards)
	cfg.Failover = cfg.Failover.withDefaults()
	// Every admitted request must have a queue slot: with QueueDepth <
	// MaxPending an admitted submit could block in the shard's queue send
	// instead of shedding fast, which is exactly what admission control is
	// for. Size the queue to the cap.
	if cfg.Shard.QueueDepth < cfg.Admission.MaxPending {
		cfg.Shard.QueueDepth = cfg.Admission.MaxPending
	}
	if cfg.Caches != nil && len(cfg.Caches) != cfg.Shards {
		return nil, fmt.Errorf("cluster: %d caches for %d shards", len(cfg.Caches), cfg.Shards)
	}
	if cfg.Fabric != nil {
		if cfg.Caches == nil {
			return nil, fmt.Errorf("cluster: Fabric requires Caches")
		}
		if cfg.Shards > 64 {
			return nil, fmt.Errorf("cluster: fabric supports at most 64 shards (bitmask holder sets)")
		}
	}
	if cfg.FlightSlots <= 0 {
		cfg.FlightSlots = 1024
	}
	c := &Cluster{
		cfg:      cfg,
		target:   target,
		drafter:  drafter,
		sessions: make(map[*foSession]int),
		liveBuf:  make([]int, 0, cfg.Shards),
		loadBuf:  make([]int, 0, cfg.Shards),
		reg:      metrics.NewRegistry(),
		lats:     metrics.NewHistogram(),
		ttfts:    metrics.NewHistogram(),
		itls:     metrics.NewHistogram(),
	}
	c.cCancelled = c.reg.Counter("cancelled")
	c.cErrored = c.reg.Counter("errored")
	c.cFailovers = c.reg.Counter("failovers")
	c.cDup = c.reg.Counter("dup_deliveries")
	if cfg.Fabric != nil {
		c.fabric = cachefabric.New(*cfg.Fabric, cfg.Caches)
		c.fabric.RegisterMetrics(c.reg, "fabric/")
		if c.cfg.Policy == nil {
			c.cfg.Policy = NewFabricAware(c.fabric)
		}
	}
	for _, r := range []struct {
		name string
		hist *metrics.Histogram
	}{{"latency", c.lats}, {"ttft", c.ttfts}, {"itl", c.itls}} {
		hist := r.hist
		c.reg.HistogramFunc(r.name, func() *metrics.Histogram {
			c.statsMu.Lock()
			defer c.statsMu.Unlock()
			return hist.Clone()
		})
	}
	c.reg.Gauge("accept_len_mean", func() float64 {
		c.statsMu.Lock()
		defer c.statsMu.Unlock()
		if c.acceptN == 0 {
			return 0
		}
		return c.acceptSum / float64(c.acceptN)
	})
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{id: i, flight: trace.NewFlightRecorder(cfg.FlightSlots)}
		eng, err := slo.NewEngine(cfg.SLO, i, sh.flight)
		if err != nil {
			for _, prev := range c.shards {
				prev.server().Stop()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh.slo = eng
		if cfg.Caches != nil {
			sh.cache = cfg.Caches[i]
		}
		sh.cAdmitted = c.reg.Counter(fmt.Sprintf("shard%d/admitted", i))
		sh.cShed = c.reg.Counter(fmt.Sprintf("shard%d/shed", i))
		sh.cServed = c.reg.Counter(fmt.Sprintf("shard%d/served", i))
		srv, err := serving.New(c.shardServingConfig(sh), target, drafter)
		if err != nil {
			for _, prev := range c.shards {
				prev.server().Stop()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh.srv.Store(srv)
		sh.state.Store(int32(coordinator.Busy))
		c.shards = append(c.shards, sh)
	}
	scaler, err := newScaler(c, cfg.Scaler)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.scaler = scaler
	return c, nil
}

// shardServingConfig derives the serving.Config a shard's server (fresh or
// revived) is built from: the shared shard template plus the shard's own
// cache, flight recorder, tracer, and identity. Revival reuses the same
// ring, so a postmortem taken after a later fault still reaches back
// across the shard's previous incarnation.
func (c *Cluster) shardServingConfig(sh *shard) serving.Config {
	shardCfg := c.cfg.Shard
	if sh.cache != nil {
		shardCfg.Cache = sh.cache
	}
	shardCfg.Tracer = c.cfg.Tracer
	shardCfg.Flight = sh.flight
	shardCfg.ShardID = sh.id
	shardCfg.SLO = sh.slo
	return shardCfg
}

// Fabric returns the cluster cache fabric (nil unless Config.Fabric was
// set). Pass it to NewFabricAware for directory-scored routing.
func (c *Cluster) Fabric() *cachefabric.Fabric { return c.fabric }

// ShardServer returns shard id's current serving.Server — a diagnostics
// escape hatch (chaos probes aim a request at a specific revived shard
// through it); regular traffic goes through Stream/Serve routing.
func (c *Cluster) ShardServer(id int) *serving.Server {
	return c.shards[id].server()
}

// FabricTick advances the cache fabric one replication round: gossip
// (eviction journals drained, directory refreshed from per-shard hot
// stats) followed by replication planning toward the currently serving
// shards. Planned copies are enqueued on their target shards, which
// apply them at their own step boundaries and confirm back to the
// directory — the tick never touches a cache mid-step. Drive it at step
// or window boundaries in virtual time; a no-op without a fabric.
func (c *Cluster) FabricTick() {
	if c.fabric == nil {
		return
	}
	c.fabric.Sync()
	var live uint64
	for _, sh := range c.shards {
		if coordinator.State(sh.state.Load()) == coordinator.Busy {
			live |= 1 << uint(sh.id)
		}
	}
	if live == 0 {
		return
	}
	for _, r := range c.fabric.Plan(live) {
		r := r
		sh := c.shards[r.Target]
		if !sh.server().EnqueueWarm(r.Prefix, func() { c.fabric.Confirm(r) }) {
			c.fabric.Abort(r)
		}
	}
}

// hotPrefixLimit bounds how many prefixes a warm handoff copies into a
// shard rejoining the serving set.
const hotPrefixLimit = 64

// warmHandoff seeds sh's prefix cache before it (re)joins the serving
// set — the single warm-handoff path shared by crash revival and scaler
// promotion. With a fabric the copy set is directory-driven (hottest
// entries cluster-wide, hidden states included); without one it degrades
// to the survivor scan the pre-fabric revival used.
func (c *Cluster) warmHandoff(sh *shard) {
	if sh.cache == nil {
		return
	}
	if c.fabric != nil {
		c.fabric.Handoff(sh.cache, sh.id, hotPrefixLimit)
		return
	}
	srcs := make([]*prefixcache.Cache, 0, len(c.shards))
	for _, other := range c.shards {
		if other != sh && other.cache != nil {
			srcs = append(srcs, other.cache)
		}
	}
	cachefabric.HandoffFromSurvivors(sh.cache, srcs, hotPrefixLimit)
}

// Scaler exposes the elastic scaler.
func (c *Cluster) Scaler() *Scaler { return c.scaler }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Registry exposes the cluster's unified metrics registry. Snapshot it for
// a consistent cluster-wide view; Stats is a typed wrapper over the same
// snapshot.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// FlightRecorder returns shard id's flight-recorder ring.
func (c *Cluster) FlightRecorder(id int) *trace.FlightRecorder { return c.shards[id].flight }

// PickShard runs the router for a prompt and returns the chosen shard ID
// without submitting anything. It is the steady-state hot path pinned at
// zero allocations: the live/load snapshot is taken into cluster-owned
// buffers under routeMu.
func (c *Cluster) PickShard(prompt []int) int {
	c.routeMu.Lock()
	live := c.liveBuf[:0]
	loads := c.loadBuf[:0]
	for _, sh := range c.shards {
		if coordinator.State(sh.state.Load()) == coordinator.Busy {
			live = append(live, sh.id)
			loads = append(loads, sh.server().Pending())
		}
	}
	if len(live) == 0 {
		// The scaler floors the serving set at MinServing, so this is a
		// belt-and-braces fallback, not a steady state. Dead shards stay
		// excluded even here; only a cluster with every shard down routes
		// blindly.
		for _, sh := range c.shards {
			if coordinator.State(sh.state.Load()) != coordinator.Dead {
				live = append(live, sh.id)
				loads = append(loads, sh.server().Pending())
			}
		}
	}
	if len(live) == 0 {
		for _, sh := range c.shards {
			live = append(live, sh.id)
			loads = append(loads, sh.server().Pending())
		}
	}
	id := live[c.cfg.Policy.Pick(prompt, live, loads)]
	c.routeMu.Unlock()
	return id
}

// Stream is a streaming session routed through the cluster: a
// serving.Stream bound to the shard that owns the request, with the
// cluster's admission accounting attached to its terminal event.
// Cancellation (context or Cancel) propagates to the owning shard's
// replica, which evicts the request at its next step boundary.
//
// With failover enabled the session survives shard death: a stream whose
// shard crashes or hangs is transparently resubmitted to a survivor (see
// failover.go), and Shard reports only the initial route.
type Stream struct {
	inner *serving.Stream
	// Shard is the shard the request was first routed to.
	Shard int
	// fo carries the failover session when Config.Failover.Enabled; events
	// and the terminal response then route through it.
	fo *foSession
}

// Stream routes a request, applies the routed shard's admission control,
// and returns its streaming session — the primary request path (Submit
// and Serve are wrappers over it). A shed request fails with *ErrShedded;
// every admitted request is guaranteed exactly one terminal event.
func (c *Cluster) Stream(ctx context.Context, req Request) (*Stream, error) {
	if c.cfg.Failover.Enabled {
		fo := &foSession{c: c, ctx: ctx, req: req}
		if err := fo.bind(); err != nil {
			return nil, err
		}
		return &Stream{inner: fo.current(), Shard: fo.shardID(), fo: fo}, nil
	}
	inner, sh, err := c.submitAttempt(ctx, req)
	if err != nil {
		return nil, err
	}
	// The shard's replica invokes this hook exactly once at the terminal
	// event, before any waiter observes it — so the admission slot is
	// released and the stats settled by the time a drained Wait returns,
	// and released even when the caller abandons the stream entirely,
	// with no per-request drain goroutine.
	inner.OnFinish(func(r serving.Response) { c.complete(sh, r) })
	return &Stream{inner: inner, Shard: sh.id}, nil
}

// submitAttempt routes one submission attempt: pick a shard, reserve an
// admission slot, and open the shard stream. It attaches no terminal
// accounting — callers decide between whole-request accounting (complete)
// and per-attempt slot release (failover sessions).
func (c *Cluster) submitAttempt(ctx context.Context, req Request) (*serving.Stream, *shard, error) {
	if c.stopped.Load() {
		return nil, nil, fmt.Errorf("cluster: stopped")
	}
	if err := ctx.Err(); err != nil {
		// A dead caller must not reserve an admission slot.
		return nil, nil, err
	}
	sh := c.shards[c.PickShard(req.Prompt)]
	// Reserve an admission slot first: the reservation is atomic, so the
	// cap holds exactly even when many submits race.
	n := int(sh.outstanding.Add(1))
	if err := sh.admit(n, req.Deadline, c.cfg.Admission); err != nil {
		sh.outstanding.Add(-1)
		sh.cShed.Inc()
		return nil, nil, err
	}
	inner, err := sh.server().Stream(ctx, serving.Request{
		Prompt: req.Prompt, MaxNew: req.MaxNew, Prior: req.Prior, Seed: req.Seed,
	})
	if err != nil {
		// Context cancellation or a stopped/crashed shard: the reservation
		// is released and the submission counts as neither admitted nor
		// shed — the caller got its error directly. (The reserved slot
		// guarantees queue capacity, so the send itself cannot block.)
		sh.outstanding.Add(-1)
		return nil, nil, err
	}
	// Bare atomic Inc, deliberately outside any Update group: it precedes
	// the request's terminal Update group in real time, so every registry
	// Snapshot sees admitted ≥ served+cancelled+errored.
	sh.cAdmitted.Inc()
	return inner, sh, nil
}

// Recv returns the next event from the owning shard (see
// serving.Stream.Recv).
func (st *Stream) Recv() (serving.Event, error) {
	if st.fo != nil {
		return st.fo.Recv()
	}
	return st.inner.Recv()
}

// Wait blocks until the terminal event and returns the final response;
// the error return is authoritative (see serving.Stream.Wait). With
// failover enabled, Wait drives the session's event pump (resubmission
// happens between events), so use either Wait or Recv on a failover
// stream, not both.
func (st *Stream) Wait() (Response, error) {
	if st.fo != nil {
		return st.fo.Wait()
	}
	r, err := st.inner.Wait()
	return Response{Response: r, Shard: st.Shard}, err
}

// Cancel marks the request for retirement on its owning shard.
func (st *Stream) Cancel() {
	if st.fo != nil {
		st.fo.Cancel()
		return
	}
	st.inner.Cancel()
}

// Submit routes a request and returns a channel delivering its response —
// a wrapper that drains a Stream. A shed request fails with *ErrShedded;
// every admitted request is guaranteed a response on the returned channel
// (Response.Err is the failure signal on this path).
func (c *Cluster) Submit(ctx context.Context, req Request) (<-chan Response, error) {
	st, err := c.Stream(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make(chan Response, 1)
	// Goroutine-free delivery: this hook is registered after the
	// accounting hook, so by the time the buffered send publishes the
	// response the admission slot is already released.
	shard := st.Shard
	st.inner.OnFinish(func(r serving.Response) { out <- Response{Response: r, Shard: shard} })
	return out, nil
}

// Serve submits and waits — a wrapper that drains a Stream. The returned
// error is authoritative; on mid-flight cancellation it returns the
// partial response together with context.Canceled.
func (c *Cluster) Serve(ctx context.Context, req Request) (Response, error) {
	st, err := c.Stream(ctx, req)
	if err != nil {
		return Response{}, err
	}
	return st.Wait()
}

// complete folds one terminal response into the shard's service-time
// estimate and the cluster-wide latency/TTFT/ITL/accept accounting.
// Requests that terminate with an error release their admission slot but
// are excluded from the served count, the latency statistics, and the
// service-time EWMA: a cancelled partial decode is not a representative
// service sample, and a hard failure (replica configuration error)
// carries zero-valued timings that would drag the percentiles and the
// admission estimate toward zero. The error itself reaches the caller
// through the response.
func (c *Cluster) complete(sh *shard, r serving.Response) {
	c.settleAttempt(sh)
	c.recordOutcome(sh, r)
}

// settleAttempt releases one admission slot on the shard that carried an
// attempt. Failover sessions call it once per attempt (each attempt holds
// its own reservation); recordOutcome then runs once per logical request.
func (c *Cluster) settleAttempt(sh *shard) {
	sh.outstanding.Add(-1)
}

// recordOutcome folds one logical request's terminal response into the
// accounting, attributed to the shard that delivered it.
func (c *Cluster) recordOutcome(sh *shard, r serving.Response) {
	if r.Err != nil {
		// Hard failures stay countable: every admitted request lands in
		// exactly one of Served/Cancelled/Errored (sheds never reach
		// complete), preserving the no-silent-drop property. The Update
		// group makes the outcome land atomically w.r.t. Snapshot.
		c.reg.Update(func() {
			if errors.Is(r.Err, context.Canceled) {
				c.cCancelled.Inc()
			} else {
				c.cErrored.Inc()
			}
		})
		return
	}
	alpha := c.cfg.Admission.SvcAlpha
	for {
		old := sh.svcBits.Load()
		cur := math.Float64frombits(old)
		sample := r.DecodeTime.Seconds()
		next := sample
		if cur > 0 {
			next = (1-alpha)*cur + alpha*sample
		}
		if sh.svcBits.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	// Counter and latency samples settle in one Update group (statsMu
	// nests inside the registry lock, matching the registered histogram
	// providers), so a concurrent Snapshot never tears the outcome.
	ex := r.ReqID
	if ex == 0 {
		ex = -1 // never admitted: no serving request ID to exemplify
	}
	c.reg.Update(func() {
		sh.cServed.Inc()
		c.statsMu.Lock()
		c.lats.RecordDuration(r.Latency, ex)
		if r.TTFT > 0 {
			c.ttfts.RecordDuration(r.TTFT, ex)
		}
		if r.ITL > 0 {
			c.itls.RecordDuration(r.ITL, ex)
		}
		if r.AcceptLen > 0 {
			c.acceptSum += r.AcceptLen
			c.acceptN++
		}
		c.statsMu.Unlock()
	})
}

// Stop shuts every shard down, draining in-flight work. It is idempotent
// and safe to call concurrently with itself and with failover-driven
// teardown: serving.Server.Stop is itself idempotent and every caller
// blocks until the shard's replicas have exited, so whichever Stop
// returns first still returns to a fully-drained cluster.
func (c *Cluster) Stop() {
	c.stopped.Store(true)
	for _, sh := range c.shards {
		sh.server().Stop()
	}
}

// ShardStats is one shard's accounting snapshot.
type ShardStats struct {
	ID    int
	State coordinator.State
	// Admitted/Served/Shed count admission outcomes; Pending is the
	// current backlog.
	Admitted int
	Served   int
	Shed     int
	Pending  int
	// Utilisation is the fraction of scaler-observed time spent SERVING
	// (0 before the first two scaler observations).
	Utilisation float64
	// CacheHitRate / CacheBytes are the shard's prefix-cache probes (zero
	// without per-shard caches).
	CacheHitRate float64
	CacheBytes   int64
	// BurnRate is the shard's maximum fast-window SLO burn rate and SLO
	// its per-spec status (zero/nil without Config.SLO).
	BurnRate float64
	SLO      []slo.SpecStatus
}

// Stats is a cluster-wide snapshot. All counters derive from one registry
// Snapshot, so in any Stats value Served + Cancelled + Errored ≤ Admitted,
// with equality once the cluster is quiescent.
type Stats struct {
	// Admitted counts requests that passed admission control and opened a
	// shard stream (failover resubmissions count once per attempt).
	Admitted int
	Served   int
	Shed     int
	// Cancelled counts requests that were admitted but retired through
	// mid-flight cancellation; Errored counts admitted requests that
	// terminated with a hard failure. Both are excluded from the latency
	// percentiles and the service-time EWMA, but every admitted request
	// lands in exactly one of Served/Cancelled/Errored.
	Cancelled int
	Errored   int
	// ShedRate is shed / (admitted + shed).
	ShedRate float64
	P50      time.Duration
	P95      time.Duration
	// TTFTP50/TTFTP95 are per-request time-to-first-token percentiles;
	// ITLP50/ITLP95 are percentiles over per-request mean inter-token
	// latencies (per-chunk ITL distributions live in each shard's own
	// serving.Stats).
	TTFTP50 time.Duration
	TTFTP95 time.Duration
	ITLP50  time.Duration
	ITLP95  time.Duration
	// P999/TTFTP999 are extreme-tail percentiles over an exact bucket-wise
	// merge of the per-shard latency histograms (metrics.Histogram.Merge) —
	// the cluster-level tails the chaos experiment reports across a failure
	// window, deterministic and independent of merge order.
	P999     time.Duration
	TTFTP999 time.Duration
	// P999Exemplars/TTFTP999Exemplars are the exemplar request IDs retained
	// by the merged p99.9 buckets — the requests to chase through
	// flight-recorder rings and trace exports when the tail moves.
	P999Exemplars     []int64
	TTFTP999Exemplars []int64
	// BurnRate is the maximum fast-window SLO burn rate across shards at
	// snapshot time; SLOBreaches totals breach markers emitted cluster-wide
	// (both zero without Config.SLO). Per-shard status lives in Shards.
	BurnRate    float64
	SLOBreaches int64
	// DuplicateDeliveries counts terminal events a client observed twice
	// for one logical request under failover. The failover dedup keeps it
	// at zero; the chaos experiment asserts that.
	DuplicateDeliveries int
	// Failovers counts successful mid-flight resubmissions (a request that
	// survived its shard's death by replaying on a survivor).
	Failovers int
	// MeanAcceptLen averages per-request SD accept lengths (0 without SD).
	MeanAcceptLen float64
	// MeanUtilisation averages shard utilisation.
	MeanUtilisation float64
	Shards          []ShardStats
	// CacheSavedPositions sums prefill positions skipped via the per-shard
	// prefix caches (0 without caches).
	CacheSavedPositions int64
	// TrainingSessions and Preemptions summarise the scaler's coordinator
	// log.
	TrainingSessions int
	Preemptions      int
}

// Stats summarises the cluster's served traffic and shard states. Every
// counter and percentile is read from one registry Snapshot, so the view
// is consistent: no torn Update groups, outcomes never lead admissions.
func (c *Cluster) Stats() Stats {
	var st Stats
	snap := c.reg.Snapshot()
	util := c.scaler.utilisations()
	for _, sh := range c.shards {
		ss := ShardStats{
			ID:           sh.id,
			State:        coordinator.State(sh.state.Load()),
			Admitted:     int(snap.Counter(fmt.Sprintf("shard%d/admitted", sh.id))),
			Served:       int(snap.Counter(fmt.Sprintf("shard%d/served", sh.id))),
			Shed:         int(snap.Counter(fmt.Sprintf("shard%d/shed", sh.id))),
			Pending:      sh.server().Pending(),
			Utilisation:  util[sh.id],
			CacheHitRate: sh.server().CacheHitRate(),
			CacheBytes:   sh.server().CacheResidentBytes(),
			BurnRate:     sh.slo.BurnRate(),
			SLO:          sh.slo.Status(),
		}
		st.Admitted += ss.Admitted
		st.Served += ss.Served
		st.Shed += ss.Shed
		st.MeanUtilisation += ss.Utilisation
		if ss.BurnRate > st.BurnRate {
			st.BurnRate = ss.BurnRate
		}
		st.SLOBreaches += sh.slo.Breaches()
		if cache := sh.server().Cache(); cache != nil {
			st.CacheSavedPositions += cache.Stats().SavedPositions
		}
		st.Shards = append(st.Shards, ss)
	}
	st.MeanUtilisation /= float64(len(c.shards))
	if total := st.Admitted + st.Shed; total > 0 {
		st.ShedRate = float64(st.Shed) / float64(total)
	}
	st.P50 = time.Duration(snap.Histogram("latency").P50)
	st.P95 = time.Duration(snap.Histogram("latency").P95)
	st.TTFTP50 = time.Duration(snap.Histogram("ttft").P50)
	st.TTFTP95 = time.Duration(snap.Histogram("ttft").P95)
	st.ITLP50 = time.Duration(snap.Histogram("itl").P50)
	st.ITLP95 = time.Duration(snap.Histogram("itl").P95)
	st.Cancelled = int(snap.Counter("cancelled"))
	st.Errored = int(snap.Counter("errored"))
	st.MeanAcceptLen = snap.Gauge("accept_len_mean")
	// Cluster p99.9 merges the per-shard histograms into the cluster-level
	// per-request histograms bucket-wise: the cluster's own histograms hold
	// one sample per request, too coarse for a 99.9th tail on their own,
	// while the shard histograms carry every chunk-level sample. The merge
	// is exact addition — deterministic for a fixed observation set, and
	// the merged tail buckets keep their exemplar request IDs.
	mergedLat, mergedTTFT := metrics.NewHistogram(), metrics.NewHistogram()
	c.statsMu.Lock()
	mergedLat.Merge(c.lats)
	mergedTTFT.Merge(c.ttfts)
	c.statsMu.Unlock()
	for _, sh := range c.shards {
		lats, ttfts := sh.server().TailHistograms()
		mergedLat.Merge(lats)
		mergedTTFT.Merge(ttfts)
	}
	st.P999 = time.Duration(mergedLat.Quantile(99.9))
	st.TTFTP999 = time.Duration(mergedTTFT.Quantile(99.9))
	st.P999Exemplars = mergedLat.ExemplarsAt(99.9)
	st.TTFTP999Exemplars = mergedTTFT.ExemplarsAt(99.9)
	st.DuplicateDeliveries = int(snap.Counter("dup_deliveries"))
	st.Failovers = int(snap.Counter("failovers"))
	st.TrainingSessions, st.Preemptions = c.scaler.sessionCounts()
	return st
}

// BurnRate returns the maximum fast-window SLO burn rate across shards —
// the cluster's load-control signal (0 without Config.SLO).
func (c *Cluster) BurnRate() float64 {
	var max float64
	for _, sh := range c.shards {
		if b := sh.slo.BurnRate(); b > max {
			max = b
		}
	}
	return max
}

// SLOEngine returns shard id's burn-rate engine (nil without Config.SLO).
func (c *Cluster) SLOEngine(id int) *slo.Engine { return c.shards[id].slo }
