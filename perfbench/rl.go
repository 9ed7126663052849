package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/sched"
	"fastrl/internal/workload"
)

// rl-longtail: TLT GRPO steps at Fig. 11's full-scale shape.
var rlLongtail = benchWorkload{
	name: "rl-longtail",
	// A step takes 0.4–1.2 s of host time on a 2-vCPU Xeon VM (0.7 s
	// median), so the pinned steps finish inside the timed phase.
	pinOps: func(seconds int) int64 { return int64(max(2, seconds*2/3)) },
	build:  buildRL,
}

// rlStepsRun counts RL steps run in this process across every setup: the
// specdec pipeline workers that core.System.Step leaks at GOMAXPROCS > 1
// accumulate per step run, whichever system ran it.
var rlStepsRun int

const (
	rlWarmSteps                               = 2
	rlDrafterWarmPrompts, rlDrafterWarmEpochs = 120, 4
)

func rlConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Arch = gpu.Qwen7B
	cfg.Cluster = core.DefaultCluster(gpu.H100, 1, 2) // 4 rollout workers at TP 2
	cfg.ModelBuckets = 1 << 12
	cfg.RL.PromptsPerStep = 16
	cfg.RL.GroupSize = 8
	cfg.MaxNew = 384
	cfg.Seed = seed
	return cfg
}

// systemSeed fixes the system under test — target weights, drafter
// warm-up and the trainer's own sampling streams — across runs, so the
// workload seed varies only the inputs and run-to-run spread measures the
// host, not a different model.
const systemSeed = 0x7e57

// newRLSystem builds the TLT system with its task pool generated from the
// workload seed.
func newRLSystem(seed int64) (*core.System, error) {
	sys, err := core.New(rlConfig(systemSeed))
	if err != nil {
		return nil, err
	}
	sys.Tasks = workload.NewTaskGen(sys.Tk, sys.Cfg.TaskPool, seed)
	sys.Sampler = workload.DefaultLengthSampler(sys.Cfg.MaxNew)
	return sys, nil
}

type rlInstance struct {
	sys *core.System
	// twin is an identical system that the traced run steps in lockstep
	// with sys, untraced, so trace.overhead_frac compares the same steps.
	twin *core.System
}

func buildRL(seed int64, tr *tracer) (instance, phaseResult, error) {
	var warm phaseResult
	sysSeed := rand.New(rand.NewSource(seed)).Int63()
	sys, err := warmRL(sysSeed, tr, &warm)
	if err != nil {
		return nil, warm, err
	}
	r := &rlInstance{sys: sys}
	if tr != nil {
		if r.twin, err = warmRL(sysSeed, nil, &phaseResult{}); err != nil {
			return nil, warm, err
		}
	}
	return r, warm, nil
}

// warmRL builds a system, warms its drafter and runs the warm-up steps.
func warmRL(seed int64, tr *tracer, warm *phaseResult) (*core.System, error) {
	t0 := time.Now()
	sys, err := newRLSystem(seed)
	tr.record("core.New", seed, -1, t0, time.Now())
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	sys.WarmUpDrafter(rlDrafterWarmPrompts, rlDrafterWarmEpochs)
	tr.record("core.WarmUpDrafter", seed, -1, t0, time.Now())
	for i := 0; i < rlWarmSteps; i++ {
		t0 = time.Now()
		st, err := sys.Step()
		tr.record("core.System.Step", int64(st.Step), -1, t0, time.Now())
		rlStepsRun++
		if err != nil {
			return nil, err
		}
		warm.attempted += sys.Cfg.RL.PromptsPerStep * sys.Cfg.RL.GroupSize
		warm.ok += checkStep(st, sys.Cfg)
	}
	return sys, nil
}

// checkStep returns how many of the step's responses pass the output
// checks: the step returns PromptsPerStep×GroupSize responses, each of
// 1..MaxNew tokens, and a finite KL. A non-finite KL fails every response.
func checkStep(st core.StepStats, cfg core.Config) int {
	want := cfg.RL.PromptsPerStep * cfg.RL.GroupSize
	if kl := st.Summary.MeanKL; len(st.RespLens) != want || math.IsNaN(kl) || math.IsInf(kl, 0) {
		return 0
	}
	ok := 0
	for _, n := range st.RespLens {
		if n >= 1 && n <= cfg.MaxNew {
			ok++
		}
	}
	return ok
}

// responseFinishMs returns every response's rollout completion time in
// simulated milliseconds, read from the per-worker iteration profiles:
// rollout admits a worker's whole batch before its first iteration, so the
// drop in running requests after iteration k is the number that finished
// at iteration k's end.
func responseFinishMs(profiles [][]sched.StepProfile) []float64 {
	var out []float64
	for _, prof := range profiles {
		for k, it := range prof {
			next := 0
			if k+1 < len(prof) {
				next = prof[k+1].Running
			}
			for n := it.Running - next; n > 0; n-- {
				out = append(out, float64(it.End)/float64(time.Millisecond))
			}
		}
	}
	return out
}

func (r *rlInstance) timed(p *phaseCtl) (phaseResult, error) {
	var res phaseResult
	cfg := r.sys.Cfg
	var (
		steps, iters, sdIters, iterTok, spotBatches int
		accept, acc, kl                             float64
		rollout, stepTime, spotTime, idle           time.Duration
		stepMs                                      []float64
	)
	for step := int64(0); !p.done(); step++ {
		// The twin's untraced step runs before the traced one on odd
		// steps and after it on even ones, so drift cancels.
		twinTokens := -1
		if r.twin != nil && step%2 == 1 {
			var err error
			if twinTokens, err = r.twinStep(p); err != nil {
				return res, err
			}
		}
		if p.tr != nil {
			if err := p.tr.window(true, p.tokens.Load()); err != nil {
				return res, err
			}
		}
		t0 := time.Now()
		st, err := r.sys.Step()
		t1 := time.Now()
		rlStepsRun++
		if err != nil {
			return res, err
		}
		p.tr.record("core.System.Step", int64(st.Step), -1, t0, t1)
		p.credit(st.Tokens)
		p.opDone()
		if r.twin != nil && step%2 == 0 {
			if twinTokens, err = r.twinStep(p); err != nil {
				return res, err
			}
		}
		if r.twin != nil && twinTokens != st.Tokens {
			return res, fmt.Errorf("step %d: twin system produced %d tokens, traced system %d", st.Step, twinTokens, st.Tokens)
		}
		ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
		// The synchronous trainer receives a step's tokens all at once
		// when Step returns: first token and last token arrive together.
		res.ttftMs = append(res.ttftMs, ms)
		res.latMs = append(res.latMs, ms)
		stepMs = append(stepMs, ms)
		res.attempted += cfg.RL.PromptsPerStep * cfg.RL.GroupSize
		res.ok += checkStep(st, cfg)
		res.tokens += int64(st.Tokens)
		if step < p.pinOps {
			// Simulated metrics cover the pinned steps only, so they are a
			// pure function of the seed.
			res.simTok += float64(st.Tokens)
			res.simSec += st.StepTime.Seconds()
			res.simLatMs = append(res.simLatMs, responseFinishMs(st.Profiles)...)
		}

		steps++
		accept += st.AcceptLen
		acc += st.Summary.Accuracy
		kl += st.Summary.MeanKL
		spotBatches += st.SpotBatches
		spotTime += st.SpotTime
		idle += st.IdleTime
		rollout += st.Rollout
		stepTime += st.StepTime
		for _, prof := range st.Profiles {
			for _, it := range prof {
				iters++
				iterTok += it.TokensOut
				if it.Mode == sched.ModeSD {
					sdIters++
				}
			}
		}
	}
	if p.tr != nil {
		p.tr.finish(p.tokens.Load())
	}
	stepP50, _ := percentile(stepMs, 50)
	workers := float64(cfg.Cluster.Workers())
	res.layers = []namedMetric{
		{"specdec.accept_len", accept / float64(steps), "tok", steps},
		{"sched.tok_per_step", ratio(float64(iterTok), float64(iters)), "tok", iters},
		{"sched.sd_step_frac", ratio(float64(sdIters), float64(iters)), "ratio", iters},
		{"spot.batches_per_step", float64(spotBatches) / float64(steps), "count", steps},
		{"spot.idle_used_frac", ratio(spotTime.Seconds(), (spotTime + idle).Seconds()), "ratio", steps},
		{"core.step_ms_p50", stepP50, "ms", steps},
		{"core.rollout_virt_frac", ratio(rollout.Seconds(), stepTime.Seconds()), "ratio", steps},
		{"core.idle_virt_frac", ratio(idle.Seconds(), workers*rollout.Seconds()), "ratio", steps},
		{"rl.accuracy", acc / float64(steps), "ratio", steps},
		{"rl.kl", kl / float64(steps), "nat", steps},
	}
	g := runtime.NumGoroutine()
	res.notes = append(res.notes, fmt.Sprintf("rl steps run in this process: %d; goroutines now %d, %.1f per step run",
		rlStepsRun, g, float64(g)/float64(rlStepsRun)))
	return res, nil
}

// twinStep runs one untraced step of the twin system in an untraced
// window and returns its token count.
func (r *rlInstance) twinStep(p *phaseCtl) (int, error) {
	if err := p.tr.window(false, p.tokens.Load()); err != nil {
		return 0, err
	}
	st, err := r.twin.Step()
	rlStepsRun++
	if err != nil {
		return 0, err
	}
	p.credit(st.Tokens)
	return st.Tokens, nil
}

// check has no run-level invariant beyond the per-step checks: core.System
// exposes no cumulative counters to reconcile.
func (r *rlInstance) check() error { return nil }

func (r *rlInstance) close() {}
