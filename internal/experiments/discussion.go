package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/sched"
	"fastrl/internal/workload"
)

func init() {
	register("disc-multiturn", "Discussion: SD under multi-turn tool-calling rollouts (paper §7)", runDiscMultiturn)
	register("disc-uniform", "Discussion: SD under uniformly-long, KV-cache-bound rollouts (paper §7)", runDiscUniform)
}

// discRun executes one rollout batch with optional tool profile and KV
// budget, returning elapsed time and accept length.
func discRun(b *bench, threshold int, tool sched.ToolProfile, kvBudget float64, nReqs, targetLen, maxNew int, seed int64) (time.Duration, float64, sched.Stats) {
	dev := gpu.NewDevice(gpu.H100, 2)
	cfg := sched.DefaultConfig(dev)
	cfg.SDThreshold = threshold
	cfg.KVBudgetBytes = kvBudget
	var eng *sched.Batch
	var err error
	if threshold >= 0 {
		eng, err = sched.New(cfg, b.target, b.eagle)
	} else {
		eng, err = sched.New(cfg, b.target, nil)
	}
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var reqs []*sched.Request
	for i, task := range b.gen.SampleSeeded(nReqs, seed) {
		r := sched.NewRequest(i, task.Prompt, maxNew,
			workload.LengthPrior{TargetLen: targetLen, Sharpness: 25}, b.tk.Answer(), b.tk.Eos())
		r.Tool = tool
		reqs = append(reqs, r)
	}
	stats := eng.Run(reqs, rng, 0)
	return stats.Elapsed, stats.MeanAcceptLen(), stats
}

func runDiscMultiturn(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 71), opts.Quick)
	nReqs, targetLen := 16, 200
	if opts.Quick {
		nReqs, targetLen = 8, 120
	}
	tool := sched.ToolProfile{Every: 40, Latency: 60 * time.Millisecond, MaxCalls: 4}

	tbl := &metrics.Table{Header: []string{"Configuration", "Rollout time", "Accept len", "Tool calls"}}
	van, _, vs := discRun(b, -1, tool, 0, nReqs, targetLen, targetLen+40, 71)
	sd, accept, ss := discRun(b, 32, tool, 0, nReqs, targetLen, targetLen+40, 71)
	tbl.AddRow("multi-turn, vanilla", fmt.Sprintf("%v", van.Round(time.Millisecond)), "-", fmt.Sprintf("%d", vs.ToolCalls))
	tbl.AddRow("multi-turn, adaptive SD", fmt.Sprintf("%v", sd.Round(time.Millisecond)), metrics.F(accept, 2), fmt.Sprintf("%d", ss.ToolCalls))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			fmt.Sprintf("SD speedup %.2fx: tool calls park requests off-GPU, shrinking the decoding batch into SD's favourable regime (paper §7)", van.Seconds()/sd.Seconds()),
		},
	}, nil
}

func runDiscUniform(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 72), opts.Quick)
	nReqs, targetLen := 16, 280
	if opts.Quick {
		nReqs, targetLen = 10, 160
	}
	perTok := b.target.Arch().KVBytesPerToken() / 2 // TP=2 device
	budget := 3 * perTok * float64(targetLen)

	tbl := &metrics.Table{Header: []string{"Configuration", "Rollout time", "Accept len", "Queued iters"}}
	van, _, vs := discRun(b, -1, sched.ToolProfile{}, budget, nReqs, targetLen, targetLen+40, 72)
	sd, accept, ss := discRun(b, 32, sched.ToolProfile{}, budget, nReqs, targetLen, targetLen+40, 72)
	tbl.AddRow("uniform-long, KV-bound, vanilla", fmt.Sprintf("%v", van.Round(time.Millisecond)), "-", fmt.Sprintf("%d", vs.QueuedSteps))
	tbl.AddRow("uniform-long, KV-bound, adaptive SD", fmt.Sprintf("%v", sd.Round(time.Millisecond)), metrics.F(accept, 2), fmt.Sprintf("%d", ss.QueuedSteps))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			fmt.Sprintf("SD speedup %.2fx: with no length tail at all, KV pressure caps the resident batch, which again lands in SD's sweet spot (paper §7)", van.Seconds()/sd.Seconds()),
		},
	}, nil
}

func init() {
	register("disc-earlystop", "Discussion: premature rollout termination vs TLT (speed-quality tradeoff, §7/§8)", runDiscEarlyStop)
}

// runDiscEarlyStop contrasts three ways of handling the long tail over a
// short training run: waiting it out (VeRL), cutting it (partial-rollout
// early stopping), and accelerating it losslessly (TLT).
func runDiscEarlyStop(opts Options) (*Result, error) {
	steps := 6
	if opts.Quick {
		steps = 3
	}
	run := func(kind core.Kind, earlyStop int) (float64, float64, error) {
		cfg := core.DefaultConfig()
		cfg.Kind = kind
		cfg.Seed = seedOr(opts, 73)
		cfg.ModelBuckets = 1 << 11
		cfg.RL.PromptsPerStep = 10
		cfg.RL.GroupSize = 6
		cfg.MaxNew = 256
		cfg.EarlyStopTail = earlyStop
		sys, err := core.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		if kind == core.TLT {
			sys.WarmUpDrafter(30, 2)
		}
		var tput, reward float64
		for i := 0; i < steps; i++ {
			st, err := sys.Step()
			if err != nil {
				return 0, 0, err
			}
			tput += st.Throughput
			reward += st.Summary.MeanReward
		}
		return tput / float64(steps), reward / float64(steps), nil
	}
	tbl := &metrics.Table{Header: []string{"System", "Throughput (tok/s)", "Mean reward"}}
	vt, vr, err := run(core.VeRL, 0)
	if err != nil {
		return nil, err
	}
	et, er, err := run(core.VeRL, 4) // cut the last 4 requests per worker
	if err != nil {
		return nil, err
	}
	tt, tr, err := run(core.TLT, 0)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("VeRL (wait out the tail)", metrics.F(vt, 0), metrics.F(vr, 3))
	tbl.AddRow("VeRL + early stop (cut the tail)", metrics.F(et, 0), metrics.F(er, 3))
	tbl.AddRow("TLT (accelerate the tail, lossless)", metrics.F(tt, 0), metrics.F(tr, 3))
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			"early stopping buys throughput by truncating exactly the responses RL needs scored, risking model quality (paper §8: 'these strategies accelerate training [but] risk degrading model quality')",
			"TLT reaches comparable throughput without touching the algorithm",
		},
	}, nil
}
