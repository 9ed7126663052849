// Package sched implements the iteration-level scheduler at the heart of
// continuous batching (Orca/vLLM-style): a Batch of inflight sequences
// that new requests join and finished requests leave at *step* boundaries
// rather than batch-of-requests boundaries. One Step decodes every
// eligible sequence through one engine-owned speculation engine and
// charges the simulated device exactly one iteration's cost (for a
// speculative step, one batched verification forward over every
// sequence's tree).
//
// The scheduler is the single request-lifecycle implementation shared by
// the trainer and the serving layer. Batch.Run is the Adaptive Rollout
// Engine of paper §5: it drives a closed batch to completion; serving
// replica step-loops instead drain an admission queue into their batch
// each iteration. Elastic SD activation, BEG-MAB strategy selection,
// tool-wait partitioning, the KV-residency bound, and prefix-cache
// prefill skipping all live here, so every caller gets the same
// semantics.
//
// Token generation is genuine — every response token is sampled from the
// target model (speculatively or not, with identical distribution) —
// while latency is charged to a virtual clock through the gpu roofline
// model. Token streams are pinned bit-identical to the pre-scheduler
// rollout engine under fixed seeds (see TestLifecycleGolden).
package sched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"fastrl/internal/cudagraph"
	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/mab"
	"fastrl/internal/metrics"
	"fastrl/internal/model"
	"fastrl/internal/prefixcache"
	"fastrl/internal/specdec"
	"fastrl/internal/trace"
	"fastrl/internal/vclock"
)

// Mode distinguishes vanilla decoding from speculative decoding.
type Mode int

const (
	// ModeVanilla is ordinary one-token-per-step decoding.
	ModeVanilla Mode = iota
	// ModeSD is speculative decoding.
	ModeSD
)

func (m Mode) String() string {
	if m == ModeSD {
		return "sd"
	}
	return "vanilla"
}

// Config parameterises the scheduler.
type Config struct {
	// Device executes all passes (a TP group acting as one device).
	Device *gpu.Device
	// Temp is the sampling temperature.
	Temp float64
	// SDThreshold is the elastic activation bound: SD engages only when
	// the number of decoding requests drops to or below it (paper default
	// 32). Zero means SD is always on; negative disables SD entirely.
	SDThreshold int
	// Strategies is the SD strategy ladder (grouped by the MAB selector).
	Strategies []specdec.Params
	// MAB configures the BEG-MAB tuner.
	MAB mab.Config
	// HostOverhead is the fixed CPU-side cost per engine iteration
	// (scheduling, sampling, detokenisation).
	HostOverhead time.Duration
	// KVBudgetBytes caps resident KV-cache bytes (paper §7, uniformly-long
	// responses): when the decoding batch's KV exceeds the budget, excess
	// requests queue instead of decoding, shrinking the running batch.
	// Zero disables the cap.
	KVBudgetBytes float64
	// StopAtRemaining truncates a closed run once this few requests remain
	// (the premature-termination strategy of partial-rollout systems the
	// paper contrasts with). Step never truncates — the run-to-completion
	// driver (Batch.Run) applies the policy via TruncateRemaining; it is
	// carried here so engine configuration stays one value.
	StopAtRemaining int
	// Cache, when non-nil, is a shared radix prefix cache: prefill skips
	// positions covered by a cached prefix (their target state is already
	// resident), matched nodes stay retained while their requests are
	// inflight, and retired sequences are inserted back with their prompt
	// boundary marked so later requests — and warm-started drafters —
	// reuse them. Serving replicas on one shard share a single cache.
	Cache *prefixcache.Cache
	// Metrics, when non-nil, receives the scheduler's cumulative counters
	// (sched/steps, sched/response_tokens, sched/prefill_saved_tokens,
	// sched/cancelled). Batches sharing a registry (serving replicas on
	// one shard) share the counters; increments are atomic and
	// allocation-free, so the step hot path keeps its 0 allocs/op pin.
	Metrics *metrics.Registry
	// Phases, when non-nil, receives the per-phase step-time decomposition
	// (admit-drain, prefill, draft, verify, cancel-sweep, retire,
	// tool-wait) stamped in virtual time. Replica batches sharing a shard
	// share one profile; accumulation is atomic and allocation-free, and a
	// nil profile costs Step exactly one pointer check ("free when off").
	// With Metrics also set, per-phase totals are exported as
	// sched/phase/<name>_ns gauges.
	Phases *PhaseProfile
}

// DefaultConfig returns the paper's engine settings for a device.
func DefaultConfig(dev *gpu.Device) Config {
	return Config{
		Device:       dev,
		Temp:         0.9,
		SDThreshold:  32,
		Strategies:   mab.DefaultStrategies(),
		MAB:          mab.DefaultConfig(),
		HostOverhead: 250 * time.Microsecond,
	}
}

const (
	// sdHostOverhead is the additional CPU cost per SD iteration (tree
	// construction, acceptance bookkeeping).
	sdHostOverhead = 1200 * time.Microsecond
	// switchCost is the one-off re-prefill cost when SD activates for a
	// running batch (paper: ~3s at datacenter scale).
	switchCost = 4 * time.Millisecond
)

// StepProfile is one scheduler iteration's record (Fig. 14 data).
type StepProfile struct {
	// End is the virtual time at iteration end.
	End time.Duration
	// Running is the number of requests decoding in this iteration.
	Running int
	Mode    Mode
	// Strategy is the SD strategy used (zero for vanilla).
	Strategy specdec.Params
	// TokensOut is the number of response tokens produced this iteration.
	TokensOut int
}

// Stats summarises scheduler activity since the last ResetStats.
type Stats struct {
	PromptTokens   int
	ResponseTokens int
	Elapsed        time.Duration
	// Profile is one record per decoding iteration of a Run (Fig. 14
	// data). Only Run fills it; Batch.Stats leaves it nil.
	Profile        []StepProfile
	SDSteps        int
	VanillaSteps   int
	AcceptLenSum   int
	AcceptRounds   int
	GraphMemBytes  float64
	SwitchCount    int
	DraftedNodes   int
	VerifiedTokens int
	// ToolWaitTime is total virtual time requests spent in GPU-free tool
	// calls; ToolCalls counts them.
	ToolWaitTime time.Duration
	ToolCalls    int
	// QueuedSteps counts iterations where the KV budget forced requests
	// to queue.
	QueuedSteps int
	// TruncatedRequests counts requests cut off by TruncateRemaining.
	TruncatedRequests int
	// CancelledRequests counts requests retired through the cancellation
	// path (Request.Cancel / Batch.Cancel) rather than finishing.
	CancelledRequests int
	// PrefillSavedTokens counts prompt positions whose prefill was skipped
	// because a cached prefix already covered them; PrefillCacheHits counts
	// requests that matched the cache at all. Both are 0 without a Cache.
	PrefillSavedTokens int
	PrefillCacheHits   int
}

// MeanAcceptLen returns the paper's accept-length metric
// (accepted/rounds + 1), 0 when SD never ran. It averages over every
// request the batch decoded; per-request accept lengths live on the
// requests themselves (Request.MeanAcceptLen).
func (s Stats) MeanAcceptLen() float64 {
	if s.AcceptRounds == 0 {
		return 0
	}
	return float64(s.AcceptLenSum)/float64(s.AcceptRounds) + 1
}

// Throughput returns response tokens per virtual second.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.ResponseTokens) / s.Elapsed.Seconds()
}

// Batch is an iteration-level scheduler over inflight sequences. It owns
// the speculation engine (and through it all decode scratch), the MAB
// strategy selector, and the CUDAGraph pool; one Batch serves one
// simulated device worker (trainer engine or serving replica) and is not
// safe for concurrent use.
type Batch struct {
	cfg     Config
	target  *model.LM
	drafter draft.Drafter

	selector *mab.Selector
	pool     *cudagraph.Pool
	// spec is the batch-owned speculation engine: its scratch (draft and
	// verification buffers, per-slot tree arenas) is reused across every
	// request and round so the decode hot path allocates nothing in
	// steady state.
	spec specdec.Engine

	// Clock may be shared across batches (one worker per batch); defaults
	// to a fresh clock.
	Clock *vclock.Clock

	// The inflight set lives in a slot table driven by per-state
	// occupancy bitmaps (the CG-OoO issue-window shape: bitmap state,
	// find-first-set selection, age-as-slot-index ordering). slots[i]
	// holds the request bound to slot i; slot indices are assigned
	// monotonically at prefill, so ascending bit iteration over occ is
	// admission order — bit-identical selection order to the former
	// slice scans. occ marks bound slots, wait marks slots parked in a
	// GPU-free tool call (set when the call starts, cleared when the
	// clock passes its resume time — the tool state machine is monotone,
	// so the bit always equals the old per-step predicate), done marks
	// finished slots awaiting retirement collection, and cxl transiently
	// marks the slots of one cancellation sweep. tail is the first
	// never-assigned slot; when retirements leave the live population
	// far behind tail, the table compacts in admission order (amortised
	// O(1) per retirement), so per-step work tracks the live batch, not
	// its history.
	slots []*Request
	occ   bitset
	wait  bitset
	done  bitset
	cxl   bitset
	tail  int
	live  int

	// pending are admitted requests awaiting their prefill at the next
	// step boundary; retired are finished requests awaiting Retire.
	pending []*Request
	retired []*Request

	stats    Stats
	sdActive bool

	// Per-step scratch reused across iterations.
	decoding    []*Request
	seqs        []specdec.Seq
	rngs        []*rand.Rand
	results     []specdec.Result
	vanTok      []int
	vanEos      []bool
	biasMaps    []map[int]float32
	frontierAgg []int
	acceptLens  []int

	// Registry counters (nil without Config.Metrics).
	mSteps        *metrics.Counter
	mTokens       *metrics.Counter
	mPrefillSaved *metrics.Counter
	mCancelled    *metrics.Counter
}

// New builds a scheduler batch. drafter may be nil (vanilla decoding
// only).
func New(cfg Config, target *model.LM, drafter draft.Drafter) (*Batch, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("sched: nil device")
	}
	b := &Batch{
		cfg:     cfg,
		target:  target,
		drafter: drafter,
		Clock:   &vclock.Clock{},
	}
	b.spec = specdec.Engine{Target: target, Temp: cfg.Temp}
	if cfg.Metrics != nil {
		b.mSteps = cfg.Metrics.Counter("sched/steps")
		b.mTokens = cfg.Metrics.Counter("sched/response_tokens")
		b.mPrefillSaved = cfg.Metrics.Counter("sched/prefill_saved_tokens")
		b.mCancelled = cfg.Metrics.Counter("sched/cancelled")
		if cfg.Phases != nil {
			ph := cfg.Phases
			for p := Phase(0); p < NumPhases; p++ {
				p := p
				cfg.Metrics.Gauge("sched/phase/"+p.String()+"_ns", func() float64 {
					return float64(ph.ns[p].Load())
				})
			}
		}
	}
	if drafter != nil && cfg.SDThreshold >= 0 {
		sel, err := mab.New(cfg.Strategies, cfg.MAB)
		if err != nil {
			return nil, err
		}
		b.selector = sel
		draftArch := drafter.Arch()
		if draftArch.Layers == 0 {
			draftArch = gpu.DraftArch(target.Arch())
		}
		b.pool = cudagraph.NewPool(cudagraph.BucketedPlan(target.Arch(), draftArch, cfg.Device.TP,
			cfg.Strategies, cfg.MAB.Thresholds, cudagraph.DefaultBuckets))
		b.stats.GraphMemBytes = b.pool.MemBytes()
	}
	return b, nil
}

// Config returns the batch configuration.
func (b *Batch) Config() Config { return b.cfg }

// Selector exposes the MAB tuner (nil when SD disabled).
func (b *Batch) Selector() *mab.Selector { return b.selector }

// Pool exposes the CUDAGraph pool (nil when SD disabled).
func (b *Batch) Pool() *cudagraph.Pool { return b.pool }

// Admit schedules a request to join the batch at the next step boundary:
// its prefill is folded into the next Step's prefill pass together with
// every other admission since the previous step, exactly one batched
// prompt forward per iteration.
func (b *Batch) Admit(r *Request) {
	if r.Trace != nil {
		now := b.Clock.Now()
		r.Trace.Record(trace.KindSubmit, now, now, 0)
	}
	b.pending = append(b.pending, r)
}

// ActiveCount returns the number of admitted requests that have not
// finished (pending admissions included).
func (b *Batch) ActiveCount() int {
	n := 0
	for w, word := range b.occ {
		n += bits.OnesCount64(word &^ b.done[w])
	}
	for _, r := range b.pending {
		if !r.Done {
			n++
		}
	}
	return n
}

// Inflight returns the number of requests currently inside the batch
// (prefilled, not yet retired).
func (b *Batch) Inflight() int { return b.live }

// Stats returns a copy of the accumulated statistics.
func (b *Batch) Stats() Stats {
	s := b.stats
	s.Elapsed = b.Clock.Now()
	return s
}

// ResetStats clears accumulated statistics (and the SD activation latch,
// which is defined against the cleared VanillaSteps counter). The
// run-to-completion driver calls it at the top of every run.
func (b *Batch) ResetStats() {
	gm := b.stats.GraphMemBytes
	b.stats = Stats{GraphMemBytes: gm}
	b.sdActive = false
}

// Reset drops every admitted request (releasing retained prefix-cache
// nodes without insert-back) and clears the retirement buffer. Requests
// keep their generated tokens; re-admitting them starts a fresh lifecycle
// (including a fresh prefill), which is how the run-to-completion driver
// reuses one batch across runs.
func (b *Batch) Reset() {
	b.occ.forEach(func(i int) {
		b.slots[i].releaseRetained()
		b.slots[i] = nil
	})
	b.occ.zero()
	b.wait.zero()
	b.done.zero()
	b.cxl.zero()
	b.tail = 0
	b.live = 0
	for _, r := range b.pending {
		r.releaseRetained()
	}
	b.pending = b.pending[:0]
	b.retired = b.retired[:0]
}

// Run is the run-to-completion driver, the trainer's rollout engine: every
// request is admitted before the first step (one batched prefill), then
// the batch steps until it is empty, maxIters iterations have run (0 = no
// bound), or Config.StopAtRemaining truncates the tail. Requests decode
// in admission order with the shared rng, reproducing the pre-scheduler
// engine's draw order exactly. The returned Stats cover this run alone:
// Elapsed is measured from its start and Profile holds one record per
// decoding iteration. Requests an iteration bound left unfinished are
// dropped (their cache pins released; a later Run re-admits and re-pins
// them), so the batch is empty and reusable when Run returns. Steady-state
// throughput measurements at a fixed batch size bound maxIters with
// requests that cannot finish within it.
func (b *Batch) Run(reqs []*Request, rng *rand.Rand, maxIters int) Stats {
	b.Reset()
	b.ResetStats()
	start := b.Clock.Now()
	for _, r := range reqs {
		b.Admit(r)
	}
	var profile []StepProfile
	for iter := 0; maxIters <= 0 || iter < maxIters; iter++ {
		active := b.ActiveCount()
		if active == 0 {
			break
		}
		// Premature termination: the long tail is cut instead of decoded.
		if b.cfg.StopAtRemaining > 0 && active <= b.cfg.StopAtRemaining && iter > 0 {
			b.TruncateRemaining()
			break
		}
		if prof, ok := b.Step(rng); ok {
			profile = append(profile, prof)
		}
	}
	stats := b.Stats()
	stats.Elapsed = b.Clock.Now() - start
	stats.Profile = profile
	b.Reset()
	return stats
}

// Retire returns the requests that finished since the last call, in the
// order they completed, and clears the internal buffer. The returned
// slice aliases scheduler storage valid until the next Step.
func (b *Batch) Retire() []*Request {
	out := b.retired
	b.retired = b.retired[:0]
	return out
}

// Cancel marks every live admitted request with the given ID for
// retirement at the next step boundary and reports whether one was
// found. Like every Batch method it must run on the batch-owning
// goroutine; cross-goroutine cancellation goes through Request.Cancel,
// which is safe from anywhere and what this method delegates to.
func (b *Batch) Cancel(reqID int) bool {
	found := false
	for _, r := range b.pending {
		if r.ID == reqID && !r.Done {
			r.Cancel()
			found = true
		}
	}
	for w, word := range b.occ {
		word &^= b.done[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if r := b.slots[i]; r.ID == reqID && !r.Done {
				r.Cancel()
				found = true
			}
		}
	}
	return found
}

// sweepCancelled retires cancellation-marked requests at the step
// boundary: pending admissions leave before ever prefilling (a request
// cancelled in the admission queue never enters a batch and its prompt is
// never charged), inflight requests leave before the decode set is built
// — freeing their batch slot and KV charge for the next admission — and
// both release their retained prefix-cache pins. Cancelled sequences are
// NOT inserted back into the cache: the stream was abandoned, so there is
// no completed sequence worth sharing. A request that already finished
// naturally is skipped (Done wins), so a cancel racing natural completion
// resolves to exactly one terminal state.
func (b *Batch) sweepCancelled() {
	now := b.Clock.Now()
	kept := b.pending[:0]
	for _, r := range b.pending {
		if r.CancelRequested() && !r.Done {
			r.Done = true
			r.cancelled = true
			// A pending request never prefilled, so admittedAt was never
			// stamped; anchor it here so DecodeTime() is zero rather than
			// the batch clock's whole lifetime.
			r.admittedAt = now
			r.finishedAt = now
			r.hasFinished = true
			r.releaseRetained()
			b.stats.CancelledRequests++
			b.cfg.Phases.count(PhaseCancelSweep, 1)
			if b.mCancelled != nil {
				b.mCancelled.Inc()
			}
			if r.Trace != nil {
				r.Trace.Record(trace.KindCancel, now, now, 0)
				r.Trace.Close(trace.KindRetire, now, 0)
			}
			b.cfg.Phases.count(PhaseRetire, 1)
			b.retired = append(b.retired, r)
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(b.pending); i++ {
		b.pending[i] = nil
	}
	b.pending = kept

	// Inflight sweep: one atomic flag load per live slot marks the
	// cancellation bitmap; marked slots fold into the done bitmap and
	// retire through the ordinary collection walk, in admission order.
	swept := false
	for w, word := range b.occ {
		word &^= b.done[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := b.slots[i]
			if !r.CancelRequested() || r.Done {
				continue
			}
			b.cxl.set(i)
			r.Done = true
			r.cancelled = true
			r.finishedAt = now
			r.hasFinished = true
			b.stats.CancelledRequests++
			b.cfg.Phases.count(PhaseCancelSweep, 1)
			if b.mCancelled != nil {
				b.mCancelled.Inc()
			}
			if r.Trace != nil {
				r.Trace.Record(trace.KindCancel, now, now, 0)
			}
			swept = true
		}
	}
	if swept {
		for w := range b.done {
			b.done[w] |= b.cxl[w]
			b.cxl[w] = 0
		}
		b.collectRetired()
	}
}

// TruncateRemaining marks every unfinished admitted request as done
// (truncated) at the current virtual time — the premature-termination
// strategy: the long tail is cut instead of decoded. Truncated requests
// retire normally (and are inserted into the prefix cache, like any
// completed sequence).
func (b *Batch) TruncateRemaining() {
	now := b.Clock.Now()
	for w, word := range b.occ {
		word &^= b.done[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := b.slots[i]
			if r.Done {
				continue
			}
			r.Done = true
			r.truncated = true
			r.finishedAt = now
			r.hasFinished = true
			b.done.set(i)
			b.stats.TruncatedRequests++
		}
	}
	for _, r := range b.pending {
		if r.Done {
			continue
		}
		r.Done = true
		r.truncated = true
		r.finishedAt = now
		r.hasFinished = true
		b.stats.TruncatedRequests++
	}
	b.collectRetired()
	// Pending requests never prefilled; retire them too.
	for _, r := range b.pending {
		r.releaseRetained()
		if r.Trace != nil {
			r.Trace.Close(trace.KindRetire, now, int64(r.Generated()))
		}
		b.cfg.Phases.count(PhaseRetire, 1)
		b.retired = append(b.retired, r)
	}
	b.pending = b.pending[:0]
}

// Step runs one scheduler iteration: pending admissions prefill in one
// pass, tool-waiting requests are partitioned out, the KV budget bounds
// the decoding set, and every decoding request advances one vanilla token
// or one speculation round through a single batched scoring pass. It
// returns the iteration's profile and whether any decoding happened (an
// all-waiting iteration only advances the clock; an empty batch does
// nothing).
//
// rng is the shared sampling stream used by requests without a private
// RNG; requests decode in admission order, so a closed batch with a
// shared stream reproduces the pre-scheduler rollout engine draw-for-draw.
func (b *Batch) Step(rng *rand.Rand) (StepProfile, bool) {
	ph := b.cfg.Phases
	var stepStart time.Duration
	if ph != nil {
		stepStart = b.Clock.Now()
	}
	b.sweepCancelled()
	b.prefillPending()

	// Partition the live slots by bitmap words: expire tool-wait bits
	// whose resume time has passed, then the ready set is one masked
	// word operation (occ &^ done &^ wait) per 64 slots. Ascending bit
	// order is admission order, so the decoding set is built in exactly
	// the order the old slice scans produced.
	now := b.Clock.Now()
	b.decoding = b.decoding[:0]
	waiting := 0
	earliest := time.Duration(0)
	for w, word := range b.occ {
		liveW := word &^ b.done[w]
		for ww := liveW & b.wait[w]; ww != 0; ww &= ww - 1 {
			i := w<<6 + bits.TrailingZeros64(ww)
			if t := b.slots[i].waitingUntil(); t > now {
				if waiting == 0 || t < earliest {
					earliest = t
				}
				waiting++
			} else {
				b.wait.clear(i)
			}
		}
		for ready := liveW &^ b.wait[w]; ready != 0; ready &= ready - 1 {
			b.decoding = append(b.decoding, b.slots[w<<6+bits.TrailingZeros64(ready)])
		}
	}
	if len(b.decoding) == 0 {
		if waiting == 0 {
			// No live inflight requests at all: nothing to do, and the
			// clock must not move.
			ph.endStep(stepStart, b.Clock.Now())
			return StepProfile{}, false
		}
		// Multi-turn: every live request is inside a tool call — jump the
		// clock to the earliest resume.
		ph.add(PhaseToolWait, earliest-now)
		b.Clock.AdvanceTo(earliest)
		ph.endStep(stepStart, b.Clock.Now())
		return StepProfile{}, false
	}
	active := b.decoding

	// Uniformly-long regime: the KV budget bounds the resident batch.
	if b.cfg.KVBudgetBytes > 0 {
		if resident := b.kvResidentLimit(active); resident < len(active) {
			active = active[:resident]
			b.stats.QueuedSteps++
		}
	}

	useSD := b.selector != nil && (b.cfg.SDThreshold == 0 || len(active) <= b.cfg.SDThreshold)
	if useSD && !b.sdActive && b.stats.VanillaSteps > 0 {
		// Activating SD mid-run re-prefills the running batch to seed
		// drafter state (paper §6.4: completes within seconds). Runs
		// that start in SD need no switch.
		b.stats.SwitchCount++
		b.Clock.Advance(switchCost)
		// The activation switch is a re-prefill of the running batch.
		ph.add(PhasePrefill, switchCost)
	}
	b.sdActive = useSD

	var prof StepProfile
	if useSD {
		prof = b.sdStep(active, rng)
		b.stats.SDSteps++
	} else {
		prof = b.vanillaStep(active, rng)
		b.stats.VanillaSteps++
	}
	for _, r := range active {
		if r.maybeStartToolCall(b.Clock.Now()) {
			b.wait.set(r.slot)
			b.stats.ToolCalls++
			b.stats.ToolWaitTime += r.Tool.Latency
			if r.Trace != nil {
				r.Trace.Record(trace.KindToolWait, b.Clock.Now(), r.waitingUntil(), 0)
			}
		}
	}
	for _, r := range active {
		// Tokens land at the step's end in virtual time: the first-token
		// timestamp (the per-request TTFT anchor) is stamped after the
		// iteration's cost has been charged to the clock.
		if !r.hasFirstTok && r.Generated() > 0 {
			r.hasFirstTok = true
			r.firstTokenAt = b.Clock.Now()
			r.firstTokN = r.Generated()
		}
		if r.Done {
			b.done.set(r.slot)
			if !r.hasFinished {
				r.finishedAt = b.Clock.Now()
				r.hasFinished = true
			}
		}
	}
	if b.mSteps != nil {
		b.mSteps.Inc()
		b.mTokens.Add(int64(prof.TokensOut))
	}
	b.collectRetired()
	ph.endStep(stepStart, b.Clock.Now())
	return prof, true
}

// prefillPending moves admissions into the inflight set, charging one
// batched prompt forward for all of them. With a prefix cache, positions
// covered by a cached prefix are skipped (their target state is already
// resident); the matched nodes stay retained until the request retires so
// eviction cannot reclaim state being decoded on.
func (b *Batch) prefillPending() {
	if len(b.pending) == 0 {
		return
	}
	b.cfg.Phases.count(PhaseAdmitDrain, int64(len(b.pending)))
	var promptTokens int
	for _, r := range b.pending {
		promptTokens += len(r.Prompt)
	}
	b.stats.PromptTokens += promptTokens
	prefillTokens := promptTokens
	if b.cfg.Cache != nil {
		for _, r := range b.pending {
			n, matched := b.cfg.Cache.Lookup(r.Prompt)
			if n == nil {
				continue
			}
			r.retained = n
			prefillTokens -= matched
			b.stats.PrefillSavedTokens += matched
			b.stats.PrefillCacheHits++
		}
	}
	saved := b.stats.PrefillSavedTokens
	for _, r := range b.pending {
		r.admittedAt = b.Clock.Now()
	}
	t0 := b.Clock.Now()
	if promptTokens > 0 {
		// KVTokens stays at the full prompt length: the cached prefix
		// contributes resident KV; only its recompute is saved.
		cost := b.cfg.Device.Forward(b.target.Arch(), gpu.ForwardOpts{
			Tokens: prefillTokens, KVTokens: promptTokens,
		}).Total() + b.cfg.HostOverhead
		b.Clock.Advance(cost)
		b.cfg.Phases.add(PhasePrefill, cost)
	}
	end := b.Clock.Now()
	for _, r := range b.pending {
		if r.Trace != nil {
			r.Trace.Record(trace.KindQueue, r.Trace.SubmittedAt(), t0, 0)
			r.Trace.Record(trace.KindPrefill, t0, end, int64(len(r.Prompt)))
		}
	}
	if b.mPrefillSaved != nil {
		b.mPrefillSaved.Add(int64(b.stats.PrefillSavedTokens - saved))
	}
	for _, r := range b.pending {
		b.bindSlot(r)
	}
	b.pending = b.pending[:0]
}

// bindSlot binds a prefilled request to the next free slot. Slots are
// handed out monotonically — never reused out of order — so ascending
// occupancy-bit iteration is admission order; compaction (the only slot
// reassignment) preserves that order. A request admitted already
// finished goes straight to the done bitmap (it never decodes and is
// collected at the step's end), and one admitted mid-tool-call parks in
// the wait bitmap, exactly as the old per-step scans classified them.
func (b *Batch) bindSlot(r *Request) {
	if b.tail >= len(b.slots) {
		b.growSlots()
	}
	i := b.tail
	b.tail++
	b.slots[i] = r
	r.slot = i
	b.occ.set(i)
	b.live++
	if r.Done {
		b.done.set(i)
	}
	if r.waitingUntil() > b.Clock.Now() {
		b.wait.set(i)
	}
}

// growSlots doubles the slot table and its bitmaps (words stay in
// lockstep). Growth is a high-water-mark event: steady-state stepping
// never reaches it, keeping the 0 allocs/op pin.
func (b *Batch) growSlots() {
	words := len(b.occ) * 2
	if words == 0 {
		words = 1
	}
	slots := make([]*Request, words*64)
	copy(slots, b.slots)
	b.slots = slots
	grow := func(s bitset) bitset {
		ns := make(bitset, words)
		copy(ns, s)
		return ns
	}
	b.occ = grow(b.occ)
	b.wait = grow(b.wait)
	b.done = grow(b.done)
	b.cxl = grow(b.cxl)
}

// maybeCompact re-packs live slots to the front of the table (in
// admission order, preserving bit order) once retirements have left the
// live population far behind the monotonic tail. The 2x slack bounds
// compaction work to O(live) amortised per retirement; the floor keeps
// small batches from compacting at all.
func (b *Batch) maybeCompact() {
	if b.tail < 128 || b.live*2 >= b.tail {
		return
	}
	j := 0
	for w, word := range b.occ {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i != j {
				r := b.slots[i]
				b.slots[j], b.slots[i] = r, nil
				r.slot = j
				b.occ.clear(i)
				b.occ.set(j)
				if b.wait.has(i) {
					b.wait.clear(i)
					b.wait.set(j)
				}
			}
			j++
		}
	}
	b.tail = j
}

// collectRetired moves finished requests out of the inflight set (in
// admission order — ascending done-bit order) into the retirement
// buffer, inserting completed sequences into the prefix cache and
// releasing their retained nodes. Freed slots leave every bitmap, so
// the walk costs one masked word read per 64 slots plus work
// proportional to the requests actually retiring.
func (b *Batch) collectRetired() {
	retiredBefore := len(b.retired)
	for w, word := range b.done {
		word &= b.occ[w]
		if word == 0 {
			continue
		}
		b.occ[w] &^= word
		b.wait[w] &^= word
		b.done[w] &^= word
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			r := b.slots[i]
			b.slots[i] = nil
			b.live--
			if b.cfg.Cache != nil && !r.cancelled {
				b.cacheInsertBack(r)
			}
			r.releaseRetained()
			if r.Trace != nil {
				r.Trace.Close(trace.KindRetire, r.finishedAt, int64(r.Generated()))
			}
			b.retired = append(b.retired, r)
		}
	}
	b.cfg.Phases.count(PhaseRetire, int64(len(b.retired)-retiredBefore))
	b.maybeCompact()
}

// cacheInsertBack writes one completed sequence into the prefix cache
// with its prompt boundary marked, so a later request sharing the prompt
// can resume from it.
func (b *Batch) cacheInsertBack(r *Request) {
	if len(r.Prompt) == 0 {
		return
	}
	b.cfg.Cache.Insert(r.Tokens, len(r.Prompt))
}

// kvResidentLimit returns how many of the active requests fit the KV
// budget (at least one, so progress is guaranteed).
func (b *Batch) kvResidentLimit(active []*Request) int {
	perTok := b.target.Arch().KVBytesPerToken() / float64(b.cfg.Device.TP)
	var used float64
	for i, r := range active {
		used += perTok * float64(len(r.Tokens))
		if used > b.cfg.KVBudgetBytes && i > 0 {
			return i
		}
	}
	return len(active)
}

func kvTokens(active []*Request) int {
	var kv int
	for _, r := range active {
		kv += len(r.Tokens)
	}
	return kv
}

// ensureSlots grows the per-step sequence scratch to n slots. Bias maps
// are allocated once per slot and reused (cleared) every step, so the
// steady-state step allocates nothing.
func (b *Batch) ensureSlots(n int) {
	if cap(b.seqs) < n {
		b.seqs = make([]specdec.Seq, n)
		b.rngs = make([]*rand.Rand, n)
		b.results = make([]specdec.Result, n)
		b.vanTok = make([]int, n)
		b.vanEos = make([]bool, n)
	}
	b.seqs = b.seqs[:n]
	b.rngs = b.rngs[:n]
	b.results = b.results[:n]
	b.vanTok = b.vanTok[:n]
	b.vanEos = b.vanEos[:n]
	for len(b.biasMaps) < n {
		b.biasMaps = append(b.biasMaps, make(map[int]float32, 2))
	}
}

// rngFor returns the request's private stream, or the shared one.
func rngFor(r *Request, shared *rand.Rand) *rand.Rand {
	if r.RNG != nil {
		return r.RNG
	}
	return shared
}

// fillSlots stages the decoding set into the speculation engine's
// sequence descriptors.
func (b *Batch) fillSlots(active []*Request, rng *rand.Rand) {
	b.ensureSlots(len(active))
	for i, r := range active {
		b.seqs[i] = specdec.Seq{
			Tokens:    r.Tokens,
			PromptLen: len(r.Prompt),
			Bias:      r.biasInto(b.biasMaps[i]),
			EosID:     r.EosID,
		}
		b.rngs[i] = rngFor(r, rng)
	}
}

// clearSlots drops request slice references staged by fillSlots so
// retired requests are not pinned by scheduler scratch.
func (b *Batch) clearSlots() {
	for i := range b.seqs {
		b.seqs[i] = specdec.Seq{}
		b.rngs[i] = nil
	}
}

// vanillaStep decodes one token for every active request through one
// grouped batched scoring pass.
func (b *Batch) vanillaStep(active []*Request, rng *rand.Rand) StepProfile {
	b.fillSlots(active, rng)
	b.spec.VanillaStepBatch(b.seqs, b.rngs, b.vanTok, b.vanEos)
	obs, observing := b.drafter.(draft.Observer)
	for i, r := range active {
		r.Tokens = append(r.Tokens, b.vanTok[i])
		r.EosSeen = r.EosSeen || b.vanEos[i]
		if observing {
			obs.Observe(r.Tokens, len(r.Prompt))
		}
		r.finish()
	}
	b.clearSlots()
	b.stats.ResponseTokens += len(active)

	// Vanilla decode replays the engine's standard decode graphs.
	cost := b.cfg.Device.Forward(b.target.Arch(), gpu.ForwardOpts{
		Tokens: len(active), KVTokens: kvTokens(active), CUDAGraph: true,
	}).Total() + b.cfg.HostOverhead
	t0 := b.Clock.Now()
	b.Clock.Advance(cost)
	// Vanilla decode is all commit: no draft pass exists to attribute.
	b.cfg.Phases.add(PhaseVerify, cost)
	end := b.Clock.Now()
	for _, r := range active {
		if r.Trace != nil {
			r.Trace.Record(trace.KindDecode, t0, end, 1)
		}
	}
	return StepProfile{End: end, Running: len(active), Mode: ModeVanilla, TokensOut: len(active)}
}

// sdStep performs one speculative round for every active request through
// specdec.StepBatch: every request's tree drafts against the same drafter
// snapshot and is verified in request order, and the cost model charges
// one batched verification forward over every tree's kept nodes.
// Online-learning drafters observe the new tokens after the batch round,
// as a real batched drafter forward would.
func (b *Batch) sdStep(active []*Request, rng *rand.Rand) StepProfile {
	strategy := b.selector.Select(len(active))
	if cap(b.frontierAgg) < strategy.DraftDepth {
		b.frontierAgg = make([]int, strategy.DraftDepth)
	}
	frontierPerDepth := b.frontierAgg[:strategy.DraftDepth]
	for i := range frontierPerDepth {
		frontierPerDepth[i] = 0
	}

	b.fillSlots(active, rng)
	b.spec.StepBatch(b.drafter, b.seqs, strategy, b.rngs, b.results)

	acceptLens := b.acceptLens[:0]
	obs, observing := b.drafter.(draft.Observer)
	var (
		verified  int
		tokensOut int
	)
	for i, r := range active {
		res := &b.results[i]
		// Clip overshoot past MaxNew (the engine cap).
		tokens := res.Tokens
		if over := r.Generated() + len(tokens) - r.MaxNew; over > 0 {
			tokens = tokens[:len(tokens)-over]
			res.Eos = false
		}
		r.Tokens = append(r.Tokens, tokens...)
		r.EosSeen = r.EosSeen || res.Eos
		r.AcceptLens = append(r.AcceptLens, res.AcceptLen)
		acceptLens = append(acceptLens, res.AcceptLen)
		// vanTok is unused during SD rounds; stash the per-request token
		// count so the trace records the round's delivery after the
		// iteration's cost is known.
		b.vanTok[i] = len(tokens)
		tokensOut += len(tokens)
		for d, w := range res.FrontierPerDepth {
			if d < len(frontierPerDepth) {
				frontierPerDepth[d] += w
			}
		}
		verified += res.VerifiedTokens
		b.stats.DraftedNodes += res.DraftedNodes
		if observing {
			obs.Observe(r.Tokens, len(r.Prompt))
		}
		r.finish()
	}
	b.clearSlots()
	b.stats.ResponseTokens += tokensOut
	b.stats.VerifiedTokens += verified
	b.stats.AcceptRounds += len(active)
	for _, a := range acceptLens {
		b.stats.AcceptLenSum += a
	}

	kv := kvTokens(active)
	var draftCost time.Duration
	sdHost := sdHostOverhead

	// Drafting: one sequential pass per depth over the batch frontier.
	draftArch := b.drafter.Arch()
	if draftArch.Layers == 0 {
		// Model-free retrieval drafting skips the draft-model forward and
		// most of the tree bookkeeping (Lookahead-style): half the host
		// cost, no GPU drafting cost.
		sdHost /= 2
	}
	if draftArch.Layers > 0 {
		_, graphOK := b.pool.Lookup(cudagraph.KindDraft, len(active), strategy.TopK)
		for _, w := range frontierPerDepth {
			if w == 0 {
				continue
			}
			draftCost += b.cfg.Device.Forward(draftArch, gpu.ForwardOpts{
				Tokens: w, KVTokens: kv, CUDAGraph: graphOK,
			}).Total()
		}
	}

	// Verification: one target pass over all selected tree nodes. Host
	// overheads ride with the verify/commit slice of the iteration.
	_, graphOK := b.pool.Lookup(cudagraph.KindTarget, len(active), strategy.TokensToVerify)
	verifyCost := b.cfg.Device.Forward(b.target.Arch(), gpu.ForwardOpts{
		Tokens: verified, KVTokens: kv, CUDAGraph: graphOK,
	}).Total() + b.cfg.HostOverhead + sdHost
	cost := draftCost + verifyCost

	t0 := b.Clock.Now()
	b.Clock.Advance(cost)
	if draftCost > 0 {
		b.cfg.Phases.add(PhaseDraft, draftCost)
	}
	b.cfg.Phases.add(PhaseVerify, verifyCost)
	end := b.Clock.Now()
	for i, r := range active {
		if r.Trace != nil {
			r.Trace.Record(trace.KindSDRound, t0, end, int64(b.vanTok[i]))
		}
	}
	b.selector.Record(strategy, cost, acceptLens, len(active)) // Record only sums; reuse is safe
	b.acceptLens = acceptLens[:0]
	return StepProfile{End: end, Running: len(active), Mode: ModeSD, Strategy: strategy, TokensOut: tokensOut}
}
