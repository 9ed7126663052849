package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/sched"
	"fastrl/internal/slo"
	"fastrl/internal/specdec"
	"fastrl/internal/trace"
	"fastrl/internal/workload"
)

func init() {
	register("batching",
		"Continuous batching vs run-to-completion serving: p50/p95 latency, throughput and device busy-fraction under a bursty arrival trace",
		runBatching)
}

// batchingArm is one admission policy's replay outcome.
type batchingArm struct {
	name     string
	maxBatch int

	served     int
	tokens     int
	p50, p95   time.Duration
	meanLat    time.Duration
	elapsed    time.Duration
	busyFrac   float64
	throughput float64 // response tokens per busy virtual second
	// Streaming SLO metrics: time-to-first-token (arrival to the step
	// boundary that emitted the request's first token) and mean
	// inter-token latency (first token to completion, per subsequent
	// token) — the two latencies a streaming client actually observes.
	ttft50, ttft95 time.Duration
	itl50, itl95   time.Duration
	// Attribution columns: the per-phase decomposition of every Step call
	// (sums must reconcile with total step time — the replay errors out
	// otherwise), the exemplar-linked latency histogram, and the TTFT-SLO
	// burn-rate series sampled at fixed virtual boundaries. All three are
	// pure functions of the seeded replay, so their checksums are pinned by
	// the double-run acceptance test.
	phases sched.PhaseSnapshot
	hist   *metrics.Histogram
	burn   []float64
}

// runBatching replays one bursty arrival trace through the iteration-level
// scheduler under different admission caps, entirely in virtual time (one
// driver goroutine per arm, no wall-clock anywhere) so the figure is
// seed-deterministic. MaxBatch=1 is run-to-completion serving — a request
// occupies the device until it finishes and everything behind it queues —
// and larger caps are continuous batching, where arrivals join the running
// batch at step boundaries.
//
// Every request decodes on its own seeded stream against a frozen drafter
// and a single fixed SD strategy, so all arms emit the identical token
// streams: the arms differ only in scheduling, making the latency and
// utilisation deltas pure continuous-batching effect.
func runBatching(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 33), opts.Quick)

	rate := 40.0 // requests/sec baseline
	duration := 6 * time.Second
	maxNew := 48
	if opts.Quick {
		rate = 28
		duration = 4 * time.Second
		maxNew = 32
	}
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   duration,
		RatePerSec: rate,
		Tasks:      len(b.gen.Pool()),
		Lengths:    workload.DefaultLengthSampler(maxNew),
		Seed:       seedOr(opts, 33) ^ 0x6261,
		// Calm first third, 3x burst through the middle third: the burst
		// is where run-to-completion head-of-line blocking shows up.
		Shape: workload.BurstShape(1.0/3, 2.0/3, 3),
	})

	arms := []batchingArm{
		{name: "run-to-completion", maxBatch: 1},
		{name: "continuous-4", maxBatch: 4},
		{name: "continuous-16", maxBatch: 16},
		// The wide arm's window spans a full occupancy word of the bitmap
		// scheduler core. Its host cost per request is not flat: sched's
		// BenchmarkBatchStep64 measured 1.03–1.24× BenchmarkBatchStep per
		// request on a 2-vCPU Xeon KVM guest.
		{name: "continuous-64", maxBatch: 64},
	}
	// With tracing requested, the continuous-16 arm records every request's
	// lifecycle. The arm is a single driver goroutine in virtual time, so
	// the exported trace is seed-deterministic (byte-identical across
	// same-seed runs).
	var tr *trace.Tracer
	if opts.Trace {
		tr = trace.New(trace.Config{SpanSlots: 4 * maxNew, MaxRequests: len(arrivals) + 1})
	}
	errs := make([]error, len(arms))
	forEach(len(arms), func(i int) {
		var armTr *trace.Tracer
		if arms[i].name == "continuous-16" {
			armTr = tr
		}
		errs[i] = replayBatchingArm(b, arrivals, maxNew, &arms[i], armTr)
	})

	res := &Result{}
	tbl := &metrics.Table{Header: []string{
		"admission", "served", "p50 ms", "p95 ms", "ttft50 ms", "ttft95 ms", "itl50 ms", "itl95 ms", "mean ms", "makespan ms", "busy", "tok/s",
	}}
	// Phase breakdown: where each arm's step time went. Time phases are
	// virtual milliseconds; admit/cancel/retire are boundary events (free in
	// virtual time), so "sum" over the time phases must equal "step total"
	// exactly — replayBatchingArm has already errored out if it doesn't.
	phTbl := &metrics.Table{Header: []string{
		"admission", "steps", "prefill ms", "draft ms", "verify ms", "tool ms", "admitted", "cancelled", "retired", "sum ms", "step total ms",
	}}
	for i := range arms {
		if errs[i] != nil {
			return nil, errs[i]
		}
		a := &arms[i]
		tbl.AddRow(a.name,
			fmt.Sprintf("%d", a.served),
			metrics.F(float64(a.p50)/float64(time.Millisecond), 2),
			metrics.F(float64(a.p95)/float64(time.Millisecond), 2),
			metrics.F(float64(a.ttft50)/float64(time.Millisecond), 2),
			metrics.F(float64(a.ttft95)/float64(time.Millisecond), 2),
			metrics.F(float64(a.itl50)/float64(time.Millisecond), 2),
			metrics.F(float64(a.itl95)/float64(time.Millisecond), 2),
			metrics.F(float64(a.meanLat)/float64(time.Millisecond), 2),
			metrics.F(float64(a.elapsed)/float64(time.Millisecond), 1),
			metrics.F(a.busyFrac, 3),
			metrics.F(a.throughput, 0),
		)
		res.Metric(a.name+"/p50_ms", float64(a.p50)/float64(time.Millisecond))
		res.Metric(a.name+"/p95_ms", float64(a.p95)/float64(time.Millisecond))
		res.Metric(a.name+"/ttft_p50_ms", float64(a.ttft50)/float64(time.Millisecond))
		res.Metric(a.name+"/ttft_p95_ms", float64(a.ttft95)/float64(time.Millisecond))
		res.Metric(a.name+"/itl_p50_ms", float64(a.itl50)/float64(time.Millisecond))
		res.Metric(a.name+"/itl_p95_ms", float64(a.itl95)/float64(time.Millisecond))
		res.Metric(a.name+"/mean_ms", float64(a.meanLat)/float64(time.Millisecond))
		res.Metric(a.name+"/makespan_ms", float64(a.elapsed)/float64(time.Millisecond))
		res.Metric(a.name+"/busy_frac", a.busyFrac)
		res.Metric(a.name+"/tokens_per_sec", a.throughput)

		ph := a.phases
		ms := func(p sched.Phase) float64 { return float64(ph.Ns[p]) / float64(time.Millisecond) }
		phTbl.AddRow(a.name,
			fmt.Sprintf("%d", ph.Steps),
			metrics.F(ms(sched.PhasePrefill), 2),
			metrics.F(ms(sched.PhaseDraft), 2),
			metrics.F(ms(sched.PhaseVerify), 2),
			metrics.F(ms(sched.PhaseToolWait), 2),
			fmt.Sprintf("%d", ph.Events[sched.PhaseAdmitDrain]),
			fmt.Sprintf("%d", ph.Events[sched.PhaseCancelSweep]),
			fmt.Sprintf("%d", ph.Events[sched.PhaseRetire]),
			metrics.F(float64(ph.SumNs())/float64(time.Millisecond), 2),
			metrics.F(float64(ph.TotalNs)/float64(time.Millisecond), 2),
		)
		res.Metric(a.name+"/steps", float64(ph.Steps))
		res.Metric(a.name+"/phase_prefill_ms", ms(sched.PhasePrefill))
		res.Metric(a.name+"/phase_draft_ms", ms(sched.PhaseDraft))
		res.Metric(a.name+"/phase_verify_ms", ms(sched.PhaseVerify))

		// Histogram and burn-series checksums, split into two 32-bit words
		// because a float64 metric cannot hold a uint64 exactly. Pinned by
		// the double-run acceptance test: byte-identical histogram state and
		// burn series across same-seed runs.
		hsum := a.hist.Checksum()
		res.Metric(a.name+"/hist_checksum_lo", float64(hsum&0xffffffff))
		res.Metric(a.name+"/hist_checksum_hi", float64(hsum>>32))
		bsum := burnChecksum(a.burn)
		res.Metric(a.name+"/burn_checksum_lo", float64(bsum&0xffffffff))
		res.Metric(a.name+"/burn_checksum_hi", float64(bsum>>32))
		var peak float64
		s := metrics.Series{Name: a.name + " ttft burn"}
		for j, v := range a.burn {
			s.Add(float64(j+1)*0.25, v)
			if v > peak {
				peak = v
			}
		}
		res.Series = append(res.Series, s)
		res.Metric(a.name+"/burn_peak", peak)
	}
	if tr != nil {
		e := tr.Export()
		sum, err := e.Validate()
		if err != nil {
			return nil, fmt.Errorf("batching: continuous-16 trace failed validation: %w", err)
		}
		chrome, err := e.Chrome()
		if err != nil {
			return nil, fmt.Errorf("batching: trace export: %w", err)
		}
		res.TraceChrome = chrome
		res.Metric("traced_requests", float64(sum.Requests))
		res.Metric("traced_spans", float64(sum.Spans))
		res.Notes = append(res.Notes,
			fmt.Sprintf("tracing on: continuous-16 recorded %d requests / %d spans (%d retired); export is seed-deterministic",
				sum.Requests, sum.Spans, sum.Retired))
	}
	res.Tables = append(res.Tables, tbl, phTbl)
	res.Notes = append(res.Notes,
		fmt.Sprintf("trace: %d arrivals over %v (3x burst through the middle third), one device per arm",
			len(arrivals), duration),
		"latency is virtual: arrival to retirement, queueing included; the replay is wall-clock-free and seed-deterministic",
		"identical token streams across arms (per-request RNG, frozen drafter, fixed SD strategy): the deltas are pure scheduling",
		"run-to-completion (max batch 1) suffers head-of-line blocking under the burst; continuous batching admits arrivals at step boundaries and amortises each verification pass across the batch",
		"ttft/itl are the streaming-client SLOs: arrival to first token, and mean per-token gap after it — run-to-completion's ttft collapses into its queueing delay while continuous batching trades a little itl for admission at the next step boundary",
		"phase breakdown decomposes every Step's virtual time exactly (prefill/draft/verify/tool-wait sum == step total; admit/cancel/retire are free boundary events) — the replay fails hard on any unattributed nanosecond",
		"burn series: fast-window burn rate of a ttft-p95<300ms objective sampled every 250ms virtual; checksums pin the series and the exemplar-linked latency histograms byte-identical across same-seed runs",
	)
	return res, nil
}

// burnChecksum folds a burn-rate series into an FNV-1a hash over the exact
// float64 bit patterns — the cheap "byte-identical across runs" probe.
func burnChecksum(series []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range series {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// replayBatchingArm drives one admission cap over the trace in virtual
// time. The arm owns a fresh scheduler batch; the single fixed strategy
// keeps token streams identical across arms (strategy choice would
// otherwise depend on batch size).
func replayBatchingArm(b *bench, arrivals []workload.Arrival, maxNew int, arm *batchingArm, tr *trace.Tracer) error {
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	ecfg.Strategies = []specdec.Params{{DraftDepth: 6, TopK: 6, TokensToVerify: 24}}
	ecfg.MAB.Thresholds = []int{1}
	// Phase attribution: every clock advance inside Step lands in exactly
	// one phase, so the breakdown table decomposes step time exactly (the
	// Reconciles check below enforces it).
	ecfg.Phases = sched.NewPhaseProfile()
	batch, err := sched.New(ecfg, b.target, b.eagle)
	if err != nil {
		return err
	}
	rng := newRand(0x62617463) // shared fallback; every request has its own

	// TTFT SLO over the replay: burn rate is sampled at fixed virtual
	// boundaries, so the series contrasts how fast each admission policy
	// torches a streaming error budget through the burst. No flight
	// recorder: the replay wants the series, not markers.
	eng, err := slo.NewEngine([]slo.Spec{{
		Name: "ttft-p95", Kind: slo.TTFT, Threshold: 300 * time.Millisecond,
		Objective: 0.95, FastWindow: 500 * time.Millisecond,
	}}, 0, nil)
	if err != nil {
		return err
	}
	const burnSample = 250 * time.Millisecond

	arm.hist = metrics.NewHistogram()
	pool := b.gen.Pool()
	lats := make([]float64, 0, len(arrivals))
	ttfts := make([]float64, 0, len(arrivals))
	itls := make([]float64, 0, len(arrivals))
	next := 0
	nextBurnAt := burnSample
	for {
		now := batch.Clock.Now()
		for next < len(arrivals) && arrivals[next].At <= now && batch.ActiveCount() < arm.maxBatch {
			a := arrivals[next]
			r := sched.NewRequest(next, pool[a.Task].Prompt, maxNew,
				workload.LengthPrior{TargetLen: a.TargetLen, Sharpness: 25},
				b.tk.Answer(), b.tk.Eos())
			r.RNG = rand.New(rand.NewSource(a.Seed))
			r.Tag = a.At
			if tr != nil {
				r.Trace = tr.Start(int64(next), 0, nil)
			}
			batch.Admit(r)
			next++
		}
		if batch.ActiveCount() == 0 {
			if next >= len(arrivals) {
				break
			}
			// Device idle: jump to the next arrival.
			batch.Clock.AdvanceTo(arrivals[next].At)
			continue
		}
		batch.Step(rng)
		stepNow := batch.Clock.Now()
		for _, r := range batch.Retire() {
			at := r.Tag.(time.Duration)
			lat := r.FinishedAt() - at
			lats = append(lats, lat.Seconds())
			// Exemplar-linked: the tail bucket remembers which request IDs
			// landed in it, so a p99.9 outlier is directly queryable in the
			// exported trace.
			arm.hist.RecordDuration(lat, int64(r.ID))
			if ft, ok := r.FirstTokenAt(); ok {
				ttfts = append(ttfts, (ft - at).Seconds())
				eng.ObserveLatency(slo.TTFT, ft-at, stepNow)
				// Same ITL definition as serving.Response.ITL: the span
				// after the first chunk, per token delivered after it.
				if gen, fc := r.Generated(), r.FirstChunkTokens(); gen > fc {
					itls = append(itls, (r.FinishedAt()-ft).Seconds()/float64(gen-fc))
				}
			}
			arm.tokens += r.Generated()
			arm.served++
		}
		for nextBurnAt <= stepNow {
			arm.burn = append(arm.burn, eng.BurnRate())
			nextBurnAt += burnSample
		}
	}
	arm.burn = append(arm.burn, eng.BurnRate()) // closing sample at drain

	arm.phases = ecfg.Phases.Snapshot()
	if !arm.phases.Reconciles() {
		return fmt.Errorf("batching arm %s: phase decomposition does not reconcile: per-phase sum %v != step total %v over %d steps",
			arm.name, time.Duration(arm.phases.SumNs()), time.Duration(arm.phases.TotalNs), arm.phases.Steps)
	}
	arm.elapsed = batch.Clock.Now()
	// The device is busy in every phase but the all-waiting clock jump.
	busy := time.Duration(arm.phases.SumNs() - arm.phases.Ns[sched.PhaseToolWait])
	if arm.elapsed > 0 {
		arm.busyFrac = busy.Seconds() / arm.elapsed.Seconds()
	}
	if busy > 0 {
		arm.throughput = float64(arm.tokens) / busy.Seconds()
	}
	arm.p50 = time.Duration(metrics.Percentile(lats, 50) * float64(time.Second))
	arm.p95 = time.Duration(metrics.Percentile(lats, 95) * float64(time.Second))
	arm.ttft50 = time.Duration(metrics.Percentile(ttfts, 50) * float64(time.Second))
	arm.ttft95 = time.Duration(metrics.Percentile(ttfts, 95) * float64(time.Second))
	arm.itl50 = time.Duration(metrics.Percentile(itls, 50) * float64(time.Second))
	arm.itl95 = time.Duration(metrics.Percentile(itls, 95) * float64(time.Second))
	var sum float64
	for _, l := range lats {
		sum += l
	}
	if len(lats) > 0 {
		arm.meanLat = time.Duration(sum / float64(len(lats)) * float64(time.Second))
	}
	return nil
}
