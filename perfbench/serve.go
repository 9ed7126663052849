package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fastrl/internal/cluster"
	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/workload"
)

// serveShape is one serving workload's traffic and cluster shape.
type serveShape struct {
	// shards is the cluster size; 0 means one shard per CPU.
	shards int
	// maxNew caps responses and scales the long-tail length sampler.
	maxNew int
	// templates > 0 prefixes every prompt with one of that many shared
	// templates of templateLen tokens, drawn with Zipf(zipfS) popularity,
	// and gives every shard a prefix cache of cacheBudget bytes behind
	// prefix-affinity routing.
	templates   int
	templateLen int
	zipfS       float64
	cacheBudget int64
	// warmPerStream is each client stream's warm-up request count.
	warmPerStream int
}

var serveLongtail = benchWorkload{
	name:   "serve-longtail",
	pinOps: func(seconds int) int64 { return int64(seconds) * 100 },
	build: func(seed int64, tr *tracer) (instance, phaseResult, error) {
		return buildServe(seed, tr, serveShape{shards: 1, maxNew: 256, warmPerStream: 250})
	},
}

var serveTemplated = benchWorkload{
	name:   "serve-templated",
	pinOps: func(seconds int) int64 { return int64(seconds) * 200 },
	build: func(seed int64, tr *tracer) (instance, phaseResult, error) {
		return buildServe(seed, tr, serveShape{
			maxNew: 64, templates: 16, templateLen: 32, zipfS: 1.1,
			cacheBudget: 64 << 10, warmPerStream: 600,
		})
	},
}

// serveInputs is the seed-generated request sequence. Client stream c
// sends requests c, c+streams, c+2·streams, ... cycling through it; each
// cycle re-keys the sampling seed so no request repeats exactly.
type serveInputs []cluster.Request

const serveInputPool = 1 << 14

func newServeInputs(sys *core.System, shape serveShape, rng *rand.Rand) serveInputs {
	pool := sys.Tasks.Pool()
	var templated [][][]int // [template][task] prompt
	var zipf *rand.Zipf
	if shape.templates > 0 {
		// The template set is the application's, fixed with the system:
		// seed-drawn templates would hash to a different shard split per
		// seed and move host metrics with it. The seed draws which
		// template each request uses.
		templated = make([][][]int, shape.templates)
		trng := rand.New(rand.NewSource(systemSeed))
		for t := range templated {
			tmpl := make([]int, shape.templateLen)
			for i := range tmpl {
				tmpl[i] = trng.Intn(sys.Tk.VocabSize())
			}
			templated[t] = make([][]int, len(pool))
			for i, task := range pool {
				templated[t][i] = append(append([]int(nil), tmpl...), task.Prompt...)
			}
		}
		zipf = rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), shape.zipfS, 1, uint64(shape.templates-1))
	}
	// GenerateArrivals supplies the task, length and seed draws; arrival
	// times are unused because the load is closed-loop.
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   time.Duration(serveInputPool) * time.Second / 100,
		RatePerSec: 100,
		Tasks:      len(pool),
		Lengths:    workload.DefaultLengthSampler(shape.maxNew),
		Seed:       rng.Int63(),
	})
	in := make(serveInputs, len(arrivals))
	for i, a := range arrivals {
		prior := workload.LengthPrior{TargetLen: a.TargetLen, Sharpness: 25}
		prompt := pool[a.Task].Prompt
		if zipf != nil {
			prompt = templated[zipf.Uint64()][a.Task]
		}
		in[i] = cluster.Request{Prompt: prompt, MaxNew: prior.HardCap(shape.maxNew), Prior: prior, Seed: a.Seed}
	}
	return in
}

// request returns client c's k-th request.
func (in serveInputs) request(streams, c, k int) cluster.Request {
	i := k*streams + c
	r := in[i%len(in)]
	r.Seed ^= int64(i/len(in)) * 0x5851f42d4c957f2d
	return r
}

type serveInstance struct {
	cl      *cluster.Cluster
	caches  []*prefixcache.Cache
	phases  *sched.PhaseProfile // traced runs only
	inputs  serveInputs
	streams int
	// next is each client stream's next request index, carried from the
	// warm-up into the timed phase.
	next []int
	// calls counts Stream calls, shed those refused by admission and
	// refused those failing for any other reason: with the cluster's
	// outcome counters they must account for every request (check).
	calls, shed, refused atomic.Int64
}

func buildServe(seed int64, tr *tracer, shape serveShape) (instance, phaseResult, error) {
	var warm phaseResult
	rng := rand.New(rand.NewSource(seed))
	// The served target and drafter are those of the RL system: the
	// paper's deployment serves the drafter TLT trained during RL.
	t0 := time.Now()
	sys, err := newRLSystem(rng.Int63())
	tr.record("core.New", seed, -1, t0, time.Now())
	if err != nil {
		return nil, warm, err
	}
	t0 = time.Now()
	sys.WarmUpDrafter(rlDrafterWarmPrompts, rlDrafterWarmEpochs)
	tr.record("core.WarmUpDrafter", seed, -1, t0, time.Now())

	s := &serveInstance{inputs: newServeInputs(sys, shape, rng), streams: runtime.NumCPU()}
	s.next = make([]int, s.streams)
	shards := shape.shards
	if shards == 0 {
		shards = s.streams
	}
	engine := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	if tr != nil {
		s.phases = sched.NewPhaseProfile()
		engine.Phases = s.phases
	}
	cfg := cluster.Config{
		Shards: shards,
		Shard:  serving.Config{Engine: engine, Replicas: 1, AnswerID: sys.Tk.Answer(), EosID: sys.Tk.Eos()},
	}
	if shape.templates > 0 {
		s.caches = cluster.NewShardCaches(shards, prefixcache.Config{BudgetBytes: shape.cacheBudget})
		cfg.Caches = s.caches
		cfg.Policy = cluster.NewPrefixAffinity(8)
	}
	t0 = time.Now()
	s.cl, err = cluster.New(cfg, sys.Target, sys.Eagle)
	tr.record("cluster.New", seed, -1, t0, time.Now())
	if err != nil {
		return nil, warm, err
	}

	t0 = time.Now()
	defer func() { tr.record("warm-up", seed, -1, t0, time.Now()) }()
	var mu sync.Mutex
	err = closedLoop(s.streams,
		func(c, k int) bool { return k >= shape.warmPerStream },
		func(c, k int) error {
			o, err := s.issue(c, nil, nil, -1)
			mu.Lock()
			warm.attempted++
			if o.ok {
				warm.ok++
			}
			mu.Unlock()
			return err
		})
	if err != nil {
		s.close()
		return nil, warm, err
	}
	return s, warm, nil
}

// closedLoop runs streams concurrent clients. Client c calls do(c, k) for
// its k-th request and sends request k+1 only after do returns, so at most
// streams requests are ever outstanding. A client stops when stop(c, k)
// reports true before request k; closedLoop returns once every client has
// stopped, with their errors joined.
func closedLoop(streams int, stop func(c, k int) bool, do func(c, k int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for c := 0; c < streams; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; !stop(c, k); k++ {
				if err := do(c, k); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// outcome is one request as its client observed it.
type outcome struct {
	ok                    bool
	tokens, events        int
	prompt                int
	submit, ttft, latency time.Duration
	decode                time.Duration // simulated (Response.DecodeTime)
	accept                float64
}

// issue sends client c's next request and drains its stream, checking
// that the token chunks concatenate to the terminal Usage.Tokens, that
// exactly one terminal event arrives, and that 1 ≤ tokens ≤ MaxNew. A
// request refused by admission is a failed operation, not an error; the
// returned error is reserved for a broken stream. tr is non-nil only in a
// traced window; id is the span ID.
func (s *serveInstance) issue(c int, credit func(int), tr *tracer, id int64) (outcome, error) {
	req := s.inputs.request(s.streams, c, s.next[c])
	s.next[c]++
	o := outcome{prompt: len(req.Prompt)}
	s.calls.Add(1)
	t0 := time.Now()
	st, err := s.cl.Stream(context.Background(), req)
	t1 := time.Now()
	o.submit = t1.Sub(t0)
	if err != nil {
		var shed *cluster.ErrShedded
		if errors.As(err, &shed) {
			s.shed.Add(1)
		} else {
			s.refused.Add(1)
		}
		return o, nil
	}
	var got []int
	var first, end time.Time
	var usage serving.Response
	terminals := 0
	for {
		ev, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			return o, fmt.Errorf("stream recv: %w", err)
		}
		o.events++
		switch ev.Kind {
		case serving.EventTokens:
			if first.IsZero() {
				first = time.Now()
			}
			got = append(got, ev.Tokens...)
			if credit != nil {
				credit(len(ev.Tokens))
			}
		case serving.EventUsage:
			if terminals == 0 {
				end = time.Now()
				usage = ev.Usage
			}
			terminals++
		}
	}
	o.tokens = len(got)
	o.ok = terminals == 1 && usage.Err == nil && slices.Equal(got, usage.Tokens) &&
		len(got) >= 1 && len(got) <= req.MaxNew && !first.IsZero()
	if !o.ok {
		return o, nil
	}
	o.ttft, o.latency = first.Sub(t0), end.Sub(t0)
	o.decode, o.accept = usage.DecodeTime, usage.AcceptLen
	if tr != nil {
		root := tr.record("request", id, -1, t0, end)
		tr.record("cluster.Stream", id, root, t0, t1)
		tr.record("first-token", id, root, t0, first)
	}
	return o, nil
}

// serveCounters is a snapshot of the layer counters the traced report
// differences over the timed phase.
type serveCounters struct {
	served            []int
	steps, respTokens int64
	lookups, hits     int64
	saved, evictions  int64
	resident          int64
	phases            sched.PhaseSnapshot
}

func (s *serveInstance) counters() serveCounters {
	var sc serveCounters
	for _, sh := range s.cl.Stats().Shards {
		sc.served = append(sc.served, sh.Served)
	}
	for i := 0; i < s.cl.Shards(); i++ {
		snap := s.cl.ShardServer(i).Registry().Snapshot()
		sc.steps += snap.Counter("sched/steps")
		sc.respTokens += snap.Counter("sched/response_tokens")
	}
	for _, c := range s.caches {
		st := c.Stats()
		sc.lookups += st.Lookups
		sc.hits += st.Hits
		sc.saved += st.SavedPositions
		sc.evictions += st.Evictions
		sc.resident += st.ResidentBytes
	}
	sc.phases = s.phases.Snapshot()
	return sc
}

// traceWindow is the traced run's window length: long enough for a CPU
// profile to collect samples, short enough that a 10 s phase alternates
// several times.
const traceWindow = 500 * time.Millisecond

func (s *serveInstance) timed(p *phaseCtl) (phaseResult, error) {
	var res phaseResult
	c0 := s.counters()
	var windows sync.WaitGroup
	stopWindows := make(chan struct{})
	var windowErr error
	if p.tr != nil {
		if err := p.tr.window(true, 0); err != nil {
			return res, err
		}
		windows.Add(1)
		go func() {
			defer windows.Done()
			tick := time.NewTicker(traceWindow)
			defer tick.Stop()
			for {
				select {
				case <-stopWindows:
					return
				case <-tick.C:
					if err := p.tr.window(!p.tr.active(), p.tokens.Load()); err != nil {
						windowErr = err
						return
					}
				}
			}
		}()
	}
	outs := make([][]outcome, s.streams)
	var ids atomic.Int64
	err := closedLoop(s.streams,
		func(c, k int) bool { return p.done() },
		func(c, k int) error {
			var tr *tracer
			if p.tr.active() {
				tr = p.tr
			}
			o, err := s.issue(c, p.credit, tr, ids.Add(1))
			outs[c] = append(outs[c], o)
			p.opDone()
			return err
		})
	if p.tr != nil {
		close(stopWindows)
		windows.Wait()
		p.tr.finish(p.tokens.Load())
	}
	if err = errors.Join(err, windowErr); err != nil {
		return res, err
	}
	c1 := s.counters()

	var submitUs []float64
	var events, prompt int
	var accept float64
	var acceptN int
	for _, client := range outs {
		for _, o := range client {
			res.attempted++
			res.tokens += int64(o.tokens)
			events += o.events
			prompt += o.prompt
			submitUs = append(submitUs, float64(o.submit.Nanoseconds())/1e3)
			if !o.ok {
				continue
			}
			res.ok++
			res.ttftMs = append(res.ttftMs, float64(o.ttft.Nanoseconds())/1e6)
			res.latMs = append(res.latMs, float64(o.latency.Nanoseconds())/1e6)
			res.simLatMs = append(res.simLatMs, float64(o.decode.Nanoseconds())/1e6)
			res.simTok += float64(o.tokens)
			res.simSec += o.decode.Seconds()
			if o.accept > 0 {
				accept += o.accept
				acceptN++
			}
		}
	}
	res.layers = s.layerCounters(res, c0, c1, submitUs, events, prompt, accept, acceptN)
	return res, nil
}

func (s *serveInstance) layerCounters(res phaseResult, c0, c1 serveCounters, submitUs []float64,
	events, prompt int, accept float64, acceptN int) []namedMetric {
	reqs := res.attempted
	var maxServed, sumServed int
	for i := range c1.served {
		d := c1.served[i] - c0.served[i]
		sumServed += d
		maxServed = max(maxServed, d)
	}
	submit, _ := percentile(submitUs, 50)
	ttft99, _ := percentile(res.ttftMs, 99)
	lat99, _ := percentile(res.latMs, 99)
	steps := c1.steps - c0.steps
	ph := func(p sched.Phase) float64 {
		return ratio(float64(c1.phases.Ns[p]-c0.phases.Ns[p]), float64(c1.phases.TotalNs-c0.phases.TotalNs))
	}
	verifies := c1.phases.Events[sched.PhaseVerify] - c0.phases.Events[sched.PhaseVerify]
	lookups := c1.lookups - c0.lookups
	out := []namedMetric{
		{"specdec.accept_len", ratio(accept, float64(acceptN)), "tok", acceptN},
		{"sched.tok_per_step", ratio(float64(c1.respTokens-c0.respTokens), float64(steps)), "tok", int(steps)},
		{"sched.sd_step_frac", ratio(float64(c1.phases.Events[sched.PhaseDraft]-c0.phases.Events[sched.PhaseDraft]), float64(verifies)), "ratio", int(verifies)},
		{"sched.prefill_virt_frac", ph(sched.PhasePrefill), "ratio", int(steps)},
		{"sched.draft_virt_frac", ph(sched.PhaseDraft), "ratio", int(steps)},
		{"sched.verify_virt_frac", ph(sched.PhaseVerify), "ratio", int(steps)},
		{"serving.events_per_req", ratio(float64(events), float64(reqs)), "count", reqs},
		{"cluster.submit_us_p50", submit, "us", len(submitUs)},
		{"cluster.load_max_mean", ratio(float64(maxServed)*float64(len(c1.served)), float64(sumServed)), "ratio", sumServed},
		{"cluster.ttft_p99_ms", ttft99, "ms", len(res.ttftMs)},
		{"cluster.latency_p99_ms", lat99, "ms", len(res.latMs)},
	}
	if s.caches != nil {
		out = append(out,
			namedMetric{"prefixcache.hit_rate", ratio(float64(c1.hits-c0.hits), float64(lookups)), "ratio", int(lookups)},
			namedMetric{"prefixcache.saved_frac", ratio(float64(c1.saved-c0.saved), float64(prompt)), "ratio", prompt},
			namedMetric{"prefixcache.evictions_per_kreq", ratio(float64(c1.evictions-c0.evictions), float64(reqs)/1000), "count", reqs},
			namedMetric{"prefixcache.resident_kb", float64(c1.resident) / 1024, "KB", len(s.caches)},
		)
	}
	return out
}

// check reconciles the cluster's outcome counters with what the clients
// sent: every Stream call was either refused before admission, shed, or
// admitted, and every admitted request was served, cancelled or errored;
// no terminal event was delivered twice.
func (s *serveInstance) check() error {
	st := s.cl.Stats()
	calls, shed, refused := s.calls.Load(), s.shed.Load(), s.refused.Load()
	switch {
	case int64(st.Shed) != shed:
		return fmt.Errorf("cluster shed %d, clients saw %d", st.Shed, shed)
	case int64(st.Admitted)+shed+refused != calls:
		return fmt.Errorf("admitted %d + shed %d + refused %d != %d calls", st.Admitted, shed, refused, calls)
	case st.Served+st.Cancelled+st.Errored != st.Admitted:
		return fmt.Errorf("served %d + cancelled %d + errored %d != admitted %d", st.Served, st.Cancelled, st.Errored, st.Admitted)
	case st.DuplicateDeliveries != 0:
		return fmt.Errorf("%d duplicate deliveries", st.DuplicateDeliveries)
	}
	return nil
}

func (s *serveInstance) close() { s.cl.Stop() }
