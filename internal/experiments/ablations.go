package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fastrl/internal/core"
	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/sched"
	"fastrl/internal/specdec"
	"fastrl/internal/spot"
	"fastrl/internal/workload"
)

func init() {
	register("abl-elastic", "Ablation: elastic SD activation threshold (always-on vs threshold vs off)", runAblElastic)
	register("abl-mab", "Ablation: BEG-MAB tuner vs fixed strategies vs oracle", runAblMAB)
	register("abl-buffer", "Ablation: DataBuffer one-step-off sampling vs current-only", runAblBuffer)
	register("abl-tree", "Ablation: tree vs linear drafting", runAblTree)
	register("abl-spot", "Ablation: adaptive spot training vs frozen warm-up drafter", runAblSpot)
}

// ablRollout runs one rollout batch under a config mutation and reports
// elapsed virtual time.
func ablRollout(b *bench, mutate func(*sched.Config), nReqs, maxNew int, seed int64) (time.Duration, float64) {
	dev := gpu.NewDevice(gpu.H100, 2)
	cfg := sched.DefaultConfig(dev)
	mutate(&cfg)
	var eng *sched.Batch
	var err error
	if cfg.SDThreshold >= 0 {
		eng, err = sched.New(cfg, b.target, b.eagle)
	} else {
		eng, err = sched.New(cfg, b.target, nil)
	}
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(seed))
	sampler := workload.DefaultLengthSampler(maxNew)
	var reqs []*sched.Request
	for i, task := range b.gen.SampleSeeded(nReqs, seed) {
		prior := workload.PriorFor(task, sampler, rng)
		reqs = append(reqs, sched.NewRequest(i, task.Prompt, prior.HardCap(maxNew), prior, b.tk.Answer(), b.tk.Eos()))
	}
	stats := eng.Run(reqs, rng, 0)
	return stats.Elapsed, stats.MeanAcceptLen()
}

func runAblElastic(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 41), opts.Quick)
	nReqs, maxNew := 64, 256
	if opts.Quick {
		nReqs, maxNew = 32, 128
	}
	tbl := &metrics.Table{Header: []string{"SD activation", "Rollout time", "Speedup vs no-SD"}}
	variants := []struct {
		name      string
		threshold int
	}{
		{"off (vanilla)", -1},
		{"always on", 0},
		{"elastic threshold 32 (TLT)", 32},
		{"elastic threshold 8", 8},
	}
	times := make([]time.Duration, len(variants))
	forEach(len(variants), func(i int) {
		times[i], _ = ablRollout(b, func(c *sched.Config) { c.SDThreshold = variants[i].threshold }, nReqs, maxNew, 41)
	})
	base := times[0] // "off" is the no-SD baseline
	for i, v := range variants {
		tbl.AddRow(v.name, fmt.Sprintf("%v", times[i].Round(time.Millisecond)), metrics.F(base.Seconds()/times[i].Seconds(), 2)+"x")
	}
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"the elastic threshold avoids SD slowdowns at large batch while capturing the long-tail gains (paper §5.1, Fig. 14)"},
	}, nil
}

func runAblMAB(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 42), opts.Quick)
	dev := gpu.NewDevice(gpu.H100, 2)
	iters := 300
	if opts.Quick {
		iters = 100
	}
	tbl := &metrics.Table{Header: []string{"Tuner", "Steady-state tok/s (BS=2)"}}

	fixed := []specdec.Params{
		{DraftDepth: 6, TopK: 6, TokensToVerify: 24},
		{DraftDepth: 3, TopK: 2, TokensToVerify: 4},
	}
	// Arm 0 is BEG-MAB over the full ladder; the rest are fixed strategies.
	tputs := make([]float64, 1+len(fixed))
	forEach(len(tputs), func(i int) {
		if i == 0 {
			tputs[0], _ = b.steadyState(dev, nil, 2, iters, 0, nil, 0.9)
			return
		}
		tputs[i], _ = b.steadyState(dev, nil, 2, iters, 0, []specdec.Params{fixed[i-1]}, 0.9)
	})
	tbl.AddRow("BEG-MAB (TLT)", metrics.F(tputs[0], 1))
	var best float64
	for i, p := range fixed {
		if tputs[i+1] > best {
			best = tputs[i+1]
		}
		tbl.AddRow(fmt.Sprintf("fixed {d=%d,k=%d,v=%d}", p.DraftDepth, p.TopK, p.TokensToVerify), metrics.F(tputs[i+1], 1))
	}
	tbl.AddRow("oracle (best fixed)", metrics.F(best, 1))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"BEG-MAB tracks the best fixed strategy without manual tuning (Algorithm 1)"},
	}, nil
}

func runAblBuffer(opts Options) (*Result, error) {
	// Reuses the spot package's one-step-off property at experiment scale:
	// mean sampled sequence length with and without the previous-step pool.
	rng := rand.New(rand.NewSource(seedOr(opts, 43)))
	sampler := workload.DefaultLengthSampler(2048)

	mkBuffer := func(longFrac float64) *spot.DataBuffer {
		buf := spot.NewDataBuffer(4096)
		buf.LongFrac = longFrac
		// Previous step: the full (long-tailed) distribution.
		for i := 0; i < 400; i++ {
			buf.Add(spotSeq(sampler.Sample(rng)))
		}
		buf.StepEnd()
		// Current step: only early finishes so far (shortest third).
		for i := 0; i < 200; i++ {
			l := sampler.Sample(rng)
			if l > 128 {
				l = 128
			}
			buf.Add(spotSeq(l))
		}
		return buf
	}
	withOff := mkBuffer(0.3).MeanSampledLen(60000, rand.New(rand.NewSource(1)))
	currentOnly := mkBuffer(0).MeanSampledLen(60000, rand.New(rand.NewSource(1)))

	tbl := &metrics.Table{Header: []string{"Sampling", "Mean trained sequence length"}}
	tbl.AddRow("current partial only", metrics.F(currentOnly, 1))
	tbl.AddRow("one-step-off (TLT DataBuffer)", metrics.F(withOff, 1))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"one-step-off sampling restores long-tail coverage that partial current-step data lacks (paper §4.2)"},
	}, nil
}

// spotSeq builds a placeholder training sequence of length n (sampling
// ablations only inspect lengths).
func spotSeq(n int) spot.Sequence {
	exs := make([]*draft.Example, n)
	for i := range exs {
		exs[i] = &draft.Example{SeqLen: n}
	}
	return spot.Sequence{Examples: exs}
}

func runAblTree(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 44), opts.Quick)
	dev := gpu.NewDevice(gpu.H100, 2)
	iters := 300
	if opts.Quick {
		iters = 100
	}
	tbl := &metrics.Table{Header: []string{"Drafting", "Steady-state tok/s (BS=1)", "Accept length"}}
	arms := []specdec.Params{
		{DraftDepth: 6, TopK: 1, TokensToVerify: 6},
		{DraftDepth: 6, TopK: 6, TokensToVerify: 24},
	}
	var tput, accept [2]float64
	forEach(len(arms), func(i int) {
		tput[i], accept[i] = b.steadyState(dev, nil, 1, iters, 0, []specdec.Params{arms[i]}, 0.9)
	})
	tbl.AddRow("linear (topK=1)", metrics.F(tput[0], 1), metrics.F(accept[0], 2))
	tbl.AddRow("tree (topK=6)", metrics.F(tput[1], 1), metrics.F(accept[1], 2))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"tree drafting verifies multiple paths per round and accepts more tokens (paper §5.1, Fig. 9)"},
	}, nil
}

func runAblSpot(opts Options) (*Result, error) {
	steps := 6
	if opts.Quick {
		steps = 3
	}
	run := func(disable bool) (float64, error) {
		cfg := core.DefaultConfig()
		cfg.Kind = core.TLT
		cfg.Seed = seedOr(opts, 45)
		cfg.ModelBuckets = 1 << 11
		cfg.RL.PromptsPerStep = 10
		cfg.RL.GroupSize = 6
		cfg.MaxNew = 192
		cfg.DisableSpot = disable
		sys, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		sys.WarmUpDrafter(30, 2)
		var accept float64
		for i := 0; i < steps; i++ {
			st, err := sys.Step()
			if err != nil {
				return 0, err
			}
			accept = st.AcceptLen // final step's accept length
		}
		return accept, nil
	}
	frozen, err := run(true)
	if err != nil {
		return nil, err
	}
	adaptive, err := run(false)
	if err != nil {
		return nil, err
	}
	tbl := &metrics.Table{Header: []string{"Drafter", "Accept length after RL steps"}}
	tbl.AddRow("frozen warm-up drafter", metrics.F(frozen, 2))
	tbl.AddRow("adaptive (spot-trained)", metrics.F(adaptive, 2))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes:  []string{"spot training keeps the drafter aligned as RL updates the target (paper §4.2, Table 6)"},
	}, nil
}
