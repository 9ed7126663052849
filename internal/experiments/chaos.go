package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fastrl/internal/cluster"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/slo"
	"fastrl/internal/specdec"
	"fastrl/internal/trace"
	"fastrl/internal/vclock"
	"fastrl/internal/workload"
)

func init() {
	register("chaos",
		"Chaos fault injection: crash/hang shard failures under a bursty trace, with vs. without determinism-checked failover",
		runChaos)
}

// chaosArm is one failover setting's replay outcome.
type chaosArm struct {
	name  string
	stats cluster.Stats
	// Client-observed outcomes: every arrival lands in exactly one bucket.
	served, failed, shed int
	// checksum folds every delivered token into one value — the
	// cross-run determinism probe (same seeds ⇒ same checksum).
	checksum int64
	// faultTTFTs are TTFT samples from requests submitted during windows
	// containing a fault — the failure-window tail.
	faultTTFTs []float64
	// reviveWarmHits counts revived shards whose first templated request
	// after the survivor warm handoff scored a prefill cache hit (the
	// replay fails hard on any revive where it does not).
	reviveWarmHits int
	err            error
}

func (a *chaosArm) availability(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(a.served) / float64(total)
}

// runChaos replays one bursty arrival trace through a sharded cluster
// twice — with failover enabled and disabled — under the same seeded
// fault plan (one crash, one hang, each revived MTTR later). Faults land
// mid-window against inflight traffic; the hang is detected and escalated
// by the health monitor, not the driver. The figure is the availability
// and failure-window tail contrast between the two arms, plus the
// exactly-once check (duplicate deliveries must be 0). Under fixed seeds
// the kill set, availability, and delivered-token checksum are fully
// deterministic (TestChaosExperimentAcceptance pins this); wall-clock
// latency tails are the one non-deterministic column.
func runChaos(opts Options) (*Result, error) {
	seed := seedOr(opts, 29)
	b := newBench(gpu.Qwen7B, seed, opts.Quick)

	shards, replicas := 3, 1
	window := 250 * time.Millisecond
	windows := 10
	rate := 32.0
	maxNew := 32
	if opts.Quick {
		windows = 6
		rate = 24
	}
	// Every prompt is template ++ task prompt: the shared prefix gives the
	// per-shard caches real locality, so a revived shard's warm handoff has
	// something cluster-hot to restore — the thing the post-revive probe
	// asserts.
	tmplRng := rand.New(rand.NewSource(seed ^ 0x7e9))
	template := make([]int, 16)
	for i := range template {
		template[i] = tmplRng.Intn(b.tk.VocabSize())
	}

	duration := time.Duration(windows) * window
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   duration,
		RatePerSec: rate,
		Tasks:      len(b.gen.Pool()),
		Lengths:    workload.DefaultLengthSampler(maxNew),
		Seed:       seed ^ 0xc4a5,
		// Steady load with a 2.5x burst through the middle — the faults land
		// at the burst's edges.
		Shape: func(frac float64) float64 {
			if frac >= 1.0/3 && frac < 2.0/3 {
				return 2.5
			}
			return 1
		},
	})
	plan := cluster.GenerateFaultPlan(cluster.FaultPlanConfig{
		Seed:     seed ^ 0xfa17,
		Shards:   shards,
		Duration: duration,
		Faults:   2,
		Kinds:    []cluster.FaultKind{cluster.FaultCrash, cluster.FaultHang},
	})

	arms := make([]chaosArm, 2)
	forEach(2, func(i int) {
		arms[i] = runChaosArm(b, i == 0, arrivals, plan, chaosArmConfig{
			shards: shards, replicas: replicas, window: window,
			windows: windows, maxNew: maxNew, template: template,
		})
	})

	res := &Result{}
	tbl := &metrics.Table{Header: []string{
		"failover", "served", "failed", "shed", "avail%", "failovers", "dup", "slo breaches", "fault ttft p99.9 ms", "ttft p99.9 ms", "p99.9 ms",
	}}
	for i := range arms {
		arm := &arms[i]
		if arm.err != nil {
			return nil, arm.err
		}
		st := arm.stats
		avail := arm.availability(len(arrivals))
		faultTail := metrics.Percentile(arm.faultTTFTs, 99.9)
		tbl.AddRow(arm.name,
			fmt.Sprintf("%d", arm.served),
			fmt.Sprintf("%d", arm.failed),
			fmt.Sprintf("%d", arm.shed),
			metrics.F(100*avail, 2),
			fmt.Sprintf("%d", st.Failovers),
			fmt.Sprintf("%d", st.DuplicateDeliveries),
			fmt.Sprintf("%d", st.SLOBreaches),
			metrics.F(1000*faultTail, 2),
			metrics.F(float64(st.TTFTP999)/float64(time.Millisecond), 2),
			metrics.F(float64(st.P999)/float64(time.Millisecond), 2),
		)
		res.Metric(arm.name+"/availability", avail)
		res.Metric(arm.name+"/served", float64(arm.served))
		res.Metric(arm.name+"/failed", float64(arm.failed))
		res.Metric(arm.name+"/shed", float64(arm.shed))
		res.Metric(arm.name+"/failovers", float64(st.Failovers))
		res.Metric(arm.name+"/dup_deliveries", float64(st.DuplicateDeliveries))
		res.Metric(arm.name+"/revive_warm_hits", float64(arm.reviveWarmHits))
		res.Metric(arm.name+"/token_checksum", float64(arm.checksum))
	}
	// Recovery time from the plan's fault→revive pairing (virtual time —
	// deterministic by construction).
	var recovery time.Duration
	var faults int
	pending := map[int]time.Duration{}
	for _, ev := range plan.Events {
		if ev.Kind == cluster.FaultRevive {
			if at, ok := pending[ev.Shard]; ok {
				recovery += ev.At - at
				faults++
				delete(pending, ev.Shard)
			}
		} else {
			pending[ev.Shard] = ev.At
		}
	}
	if faults > 0 {
		res.Metric("recovery_ms", float64(recovery/time.Duration(faults))/float64(time.Millisecond))
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		fmt.Sprintf("trace: %d arrivals over %v (2.5x mid-burst), %d shards x %d replica(s); fault plan: %v",
			len(arrivals), duration, shards, replicas, describeFaults(plan)),
		"faults land mid-window against inflight traffic; the hang carries no error signal — the health monitor detects the stalled step counter and escalates it to a crash",
		"with failover, every request stranded on a dead shard replays on a survivor from its private RNG and prompt, bit-identical and deduplicated (dup must be 0); without, those requests fail",
		"availability, failovers, and the delivered-token checksum are seed-deterministic (the CI acceptance test replays the experiment and compares them exactly); latency tails carry wall time and are not",
		"fault ttft p99.9 samples only requests submitted during fault windows; cluster ttft/latency p99.9 are exact bucket-wise histogram merges across shards",
		"each shard runs an availability SLO (objective 99%, 500ms fast window): a fault torching the shard's inflight requests burns the budget and drops a KindSLOBreach marker into the same flight ring as the fault record — the replay fails hard if any crash/hang leaves no breach marker behind it",
		"every prompt shares a 16-token template; revived shards rejoin warm (their caches re-filled from the survivors' hottest prefixes), and the replay fails hard unless each one's first templated request scores a prefill cache hit (revive_warm_hits counts the revives that passed)",
	)
	return res, nil
}

func describeFaults(plan cluster.FaultPlan) string {
	s := ""
	for i, ev := range plan.Events {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%v@%v(shard %d)", ev.Kind, ev.At.Round(time.Millisecond), ev.Shard)
	}
	return s
}

type chaosArmConfig struct {
	shards, replicas int
	window           time.Duration
	windows, maxNew  int
	// template is the shared prompt prefix prepended to every task prompt.
	template []int
}

// runChaosArm replays the trace and fault plan through a fresh cluster.
// Submission is window-structured: each window's arrivals are submitted,
// the window's faults are applied against them mid-flight, and the window
// drains under health-monitor polling before the next begins. Revives
// apply at window boundaries. Prefix-affinity routing makes the kill set
// (which requests sit on the faulted shard) independent of goroutine
// scheduling — the backbone of the arm's determinism.
func runChaosArm(b *bench, failover bool, arrivals []workload.Arrival, plan cluster.FaultPlan, cfg chaosArmConfig) chaosArm {
	arm := chaosArm{name: "without"}
	if failover {
		arm.name = "with"
	}
	drafter := b.eagle.Clone()
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	// One pinned SD strategy: a request's token stream depends only on its
	// private seed, which is what makes a failover replay bit-identical.
	ecfg.Strategies = []specdec.Params{{DraftDepth: 6, TopK: 6, TokensToVerify: 24}}
	ecfg.MAB.Thresholds = []int{1}
	// Per-shard caches: revives restore the hot templated prefix from the
	// survivors' caches instead of rejoining cold. Routing stays
	// prefix-affinity — hashing past the shared template so tasks spread
	// as before — keeping the kill set independent of cache state.
	caches := cluster.NewShardCaches(cfg.shards, prefixcache.Config{})
	cl, err := cluster.New(cluster.Config{
		Shards: cfg.shards,
		Shard: serving.Config{
			Engine: ecfg, Replicas: cfg.replicas, QueueDepth: 512,
			AnswerID: b.tk.Answer(), EosID: b.tk.Eos(),
		},
		Policy: cluster.NewPrefixAffinity(len(cfg.template) + 4),
		Caches: caches,
		// Headroom for the burst plus failover resubmissions: chaos measures
		// fault loss, not admission loss.
		Admission: cluster.AdmissionConfig{MaxPending: 512},
		Failover:  cluster.FailoverConfig{Enabled: failover},
		// Availability SLO per shard: faults are the only failure source in
		// this experiment (admission never sheds at this headroom), so every
		// burn-rate breach marker in a shard's flight ring is attributable
		// to an injected fault — verifySLOBreaches pins that the marker
		// lands in ring order after the fault record it stems from. The
		// tight objective (99%) and short fast window make even a lightly
		// loaded shard's kill set burn well past the breach threshold.
		SLO: []slo.Spec{{
			Name: "availability", Kind: slo.Availability, Objective: 0.99,
			FastWindow: 500 * time.Millisecond,
		}},
	}, b.target, drafter)
	if err != nil {
		arm.err = err
		return arm
	}
	defer cl.Stop()
	mon := cl.NewMonitor(cluster.MonitorConfig{HangPolls: 10})
	clock := &vclock.Clock{}

	var faults, revives []cluster.FaultEvent
	for _, ev := range plan.Events {
		if ev.Kind == cluster.FaultRevive {
			revives = append(revives, ev)
		} else {
			faults = append(faults, ev)
		}
	}
	var mu sync.Mutex
	record := func(r cluster.Response, err error, faultWindow bool) {
		mu.Lock()
		defer mu.Unlock()
		var shedErr *cluster.ErrShedded
		switch {
		case err == nil:
			arm.served++
			// Per-request hash folded order-sensitively, then summed across
			// requests commutatively: the checksum pins every delivered token
			// stream exactly while staying independent of completion order.
			var h int64 = 1
			for _, tok := range r.Tokens {
				h = h*31 + int64(tok)
			}
			arm.checksum += h
			if faultWindow && r.TTFT > 0 {
				arm.faultTTFTs = append(arm.faultTTFTs, r.TTFT.Seconds())
			}
		case errors.As(err, &shedErr):
			arm.shed++
		default:
			arm.failed++
		}
	}

	// probeRevived is the warm-handoff smoke: immediately after a revive,
	// the shard's very first templated request must already score a prefill
	// cache hit. The probe prompt is the shard's hottest restored prefix —
	// every resident path stems from templated traffic, so it must carry
	// the shared template, and serving it exercises the real prefill-lookup
	// path against the handed-off state before any routed traffic arrives.
	probeRevived := func(shard int) error {
		c := caches[shard]
		hot := c.HotPrefixStats(1)
		if len(hot) == 0 {
			return fmt.Errorf("chaos arm %s: revived shard %d rejoined with an empty cache — warm handoff copied nothing",
				arm.name, shard)
		}
		probe := hot[0].Tokens
		if len(probe) < len(cfg.template) {
			return fmt.Errorf("chaos arm %s: revived shard %d hottest restored prefix is %d tokens, shorter than the %d-token template",
				arm.name, shard, len(probe), len(cfg.template))
		}
		for i, tok := range cfg.template {
			if probe[i] != tok {
				return fmt.Errorf("chaos arm %s: revived shard %d restored prefix diverges from the shared template at token %d — handoff shipped non-templated state",
					arm.name, shard, i)
			}
		}
		before := c.Stats().Hits
		if _, err := cl.ShardServer(shard).Serve(context.Background(), serving.Request{
			Prompt: probe, MaxNew: 8, Seed: 0x9e37 + int64(shard),
		}); err != nil {
			return fmt.Errorf("chaos arm %s: revived shard %d refused its first templated request: %w", arm.name, shard, err)
		}
		if after := c.Stats().Hits; after <= before {
			return fmt.Errorf("chaos arm %s: revived shard %d served its first templated request without a prefill cache hit",
				arm.name, shard)
		}
		arm.reviveWarmHits++
		return nil
	}

	next, fi, ri := 0, 0, 0
	var expected []expectedFault
	for w := 0; w < cfg.windows; w++ {
		wStart := time.Duration(w) * cfg.window
		wEnd := wStart + cfg.window
		clock.AdvanceTo(wStart)
		for ri < len(revives) && revives[ri].At <= wStart {
			if err := cl.ReviveShard(revives[ri].Shard, wStart); err != nil {
				arm.err = err
				return arm
			}
			if err := probeRevived(revives[ri].Shard); err != nil {
				arm.err = err
				return arm
			}
			ri++
		}
		var due []cluster.FaultEvent
		for fi < len(faults) && faults[fi].At < wEnd {
			due = append(due, faults[fi])
			fi++
		}
		for _, f := range due {
			// Pre-stall the doomed shard so none of this window's requests
			// can complete a step before the fault lands: the kill set is
			// then exactly "everything routed to the shard", not a race.
			cl.SlowShard(f.Shard, 5*time.Millisecond, wStart)
		}

		batch := arrivals[next:]
		for i, a := range batch {
			if a.At >= wEnd {
				batch = batch[:i]
				break
			}
		}
		next += len(batch)
		streams := make([]*cluster.Stream, 0, len(batch))
		for _, a := range batch {
			prompt := append(append([]int(nil), cfg.template...), b.gen.Pool()[a.Task].Prompt...)
			st, err := cl.Stream(context.Background(), cluster.Request{
				Prompt: prompt,
				MaxNew: cfg.maxNew,
				Prior:  workload.LengthPrior{TargetLen: a.TargetLen, Sharpness: 25},
				Seed:   a.Seed,
			})
			if err != nil {
				record(cluster.Response{}, err, len(due) > 0)
				continue
			}
			streams = append(streams, st)
		}
		for _, f := range due {
			at := clock.Now()
			switch f.Kind {
			case cluster.FaultCrash:
				cl.CrashShard(f.Shard, at)
				expected = append(expected, expectedFault{shard: f.Shard, kind: trace.KindFaultCrash, at: at})
			case cluster.FaultHang:
				cl.HangShard(f.Shard, at)
				expected = append(expected, expectedFault{shard: f.Shard, kind: trace.KindFaultHang, at: at})
			case cluster.FaultSlow:
				cl.SlowShard(f.Shard, f.Stall, at)
				expected = append(expected, expectedFault{shard: f.Shard, kind: trace.KindFaultSlow, at: at})
			}
		}

		// Drain the window under monitor polling — hang escalation happens
		// here, from the stalled step counter, exactly as it would in
		// production.
		stopPoll := make(chan struct{})
		var pollWG sync.WaitGroup
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				mon.Poll(clock.Now())
				time.Sleep(time.Millisecond)
			}
		}()
		var wg sync.WaitGroup
		for _, st := range streams {
			wg.Add(1)
			go func(st *cluster.Stream) {
				defer wg.Done()
				r, err := st.Wait()
				record(r, err, len(due) > 0)
			}(st)
		}
		wg.Wait()
		close(stopPoll)
		pollWG.Wait()
		clock.AdvanceTo(wEnd)
	}
	for ri < len(revives) {
		if err := cl.ReviveShard(revives[ri].Shard, clock.Now()); err != nil {
			arm.err = err
			return arm
		}
		if err := probeRevived(revives[ri].Shard); err != nil {
			arm.err = err
			return arm
		}
		ri++
	}
	arm.stats = cl.Stats()
	if got := arm.served + arm.failed + arm.shed; got != len(arrivals) {
		arm.err = fmt.Errorf("chaos arm %s: %d served + %d failed + %d shed != %d arrivals\n%s",
			arm.name, arm.served, arm.failed, arm.shed, len(arrivals), dumpRecorder(cl))
	}
	if arm.err == nil {
		arm.err = verifyFlightRecords(cl, arm.name, expected)
	}
	if arm.err == nil {
		arm.err = verifySLOBreaches(cl, arm.name, expected)
	}
	return arm
}

// expectedFault is one injected fault the flight recorder must have
// captured: the kind, the target shard, and the virtual injection time.
type expectedFault struct {
	shard int
	kind  trace.Kind
	at    time.Duration
}

// verifyFlightRecords asserts every injected fault left a record in its
// shard's flight ring at the right virtual time, and that every crash (or
// hang — escalated to a crash by the monitor) produced a postmortem
// capture containing that record.
func verifyFlightRecords(cl *cluster.Cluster, arm string, expected []expectedFault) error {
	for _, want := range expected {
		found := false
		for _, r := range cl.FlightRecorder(want.shard).Snapshot() {
			if r.Kind == want.kind && r.Start == want.at && int(r.Shard) == want.shard {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("chaos arm %s: shard %d flight ring missing %v@%v\n%s",
				arm, want.shard, want.kind, want.at, dumpRecorder(cl))
		}
		if want.kind != trace.KindFaultCrash && want.kind != trace.KindFaultHang {
			continue
		}
		// Crashes capture a postmortem directly; hangs through the
		// monitor's escalation. Either way the capture must exist and hold
		// the injected fault's record.
		captured := false
		for _, pm := range cl.Postmortems() {
			if pm.Shard != want.shard {
				continue
			}
			for _, r := range pm.Records {
				if r.Kind == want.kind && r.Start == want.at {
					captured = true
					break
				}
			}
		}
		if !captured {
			return fmt.Errorf("chaos arm %s: no postmortem captured %v@%v on shard %d\n%s",
				arm, want.kind, want.at, want.shard, dumpRecorder(cl))
		}
	}
	return nil
}

// verifySLOBreaches asserts the SLO story of every injected crash/hang
// sits alongside the fault markers: the faulted shard's availability
// budget torches when its inflight requests die, so its flight ring must
// hold a KindSLOBreach marker recorded after the fault record. Ring order
// is record order, which sidesteps comparing the driver's window clock
// against the shard's step clock.
func verifySLOBreaches(cl *cluster.Cluster, arm string, expected []expectedFault) error {
	for _, want := range expected {
		if want.kind != trace.KindFaultCrash && want.kind != trace.KindFaultHang {
			continue
		}
		recs := cl.FlightRecorder(want.shard).Snapshot()
		faultAt := -1
		for i, r := range recs {
			if r.Kind == want.kind && r.Start == want.at {
				faultAt = i
				break
			}
		}
		found := false
		for _, r := range recs[faultAt+1:] {
			if r.Kind == trace.KindSLOBreach {
				if r.ReqID != -1 || int(r.Shard) != want.shard {
					return fmt.Errorf("chaos arm %s: breach marker fields wrong: %+v on shard %d",
						arm, r, want.shard)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("chaos arm %s: shard %d ring has no SLO breach marker after %v@%v\n%s",
				arm, want.shard, want.kind, want.at, dumpRecorder(cl))
		}
	}
	return nil
}

// dumpRecorder renders every shard's flight ring and the postmortem log —
// the failure-report payload when a chaos assertion trips.
func dumpRecorder(cl *cluster.Cluster) string {
	s := "flight recorder dump:\n"
	for id := 0; id < cl.Shards(); id++ {
		recs := cl.FlightRecorder(id).Snapshot()
		s += fmt.Sprintf("shard %d ring (%d records):\n", id, len(recs))
		for _, r := range recs {
			s += fmt.Sprintf("  req=%-6d %-12s [%v → %v] arg=%d\n", r.ReqID, r.Kind, r.Start, r.End, r.Arg)
		}
	}
	for _, pm := range cl.Postmortems() {
		s += pm.String()
	}
	return s
}
