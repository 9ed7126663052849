package workload

import (
	"math"
	"math/rand"
	"time"

	"fastrl/internal/metrics"
)

// TraceStep is one RL step's response-length summary, matching the fields
// of the ByteDance production trace in paper Fig. 2.
type TraceStep struct {
	Step   int
	Max    int
	P75    int
	Median int
}

// TraceConfig parameterises synthetic production-trace generation.
type TraceConfig struct {
	Steps int
	// MaxLen is the configured generation cap (20,480 in the trace).
	MaxLen int
	// StartMedian / EndMedian shape the slow median growth over training
	// (responses lengthen as the model learns to reason).
	StartMedian float64
	EndMedian   float64
	Sigma       float64
	TailProb    float64
	TailAlpha   float64
	// Responses per step (global batch x group size).
	PerStep int
	Seed    int64
}

// DefaultTraceConfig mirrors the Fig. 2 setting (Qwen2.5-32B, 385 steps,
// 20,480-token cap).
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Steps:       385,
		MaxLen:      20480,
		StartMedian: 900,
		EndMedian:   2600,
		Sigma:       0.75,
		TailProb:    0.06,
		TailAlpha:   1.05,
		PerStep:     512,
		Seed:        7,
	}
}

// GenerateTrace synthesises a production-style trace: per-step response
// length distributions whose median slowly grows while a persistent
// long tail keeps hitting the configured cap — the paper's
// "Under-Utilized Zone" between p75 and max.
func GenerateTrace(cfg TraceConfig) []TraceStep {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]TraceStep, 0, cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		frac := float64(step) / math.Max(1, float64(cfg.Steps-1))
		median := cfg.StartMedian + (cfg.EndMedian-cfg.StartMedian)*frac
		s := LengthSampler{
			Median:    median,
			Sigma:     cfg.Sigma,
			TailProb:  cfg.TailProb,
			TailAlpha: cfg.TailAlpha,
			MaxLen:    cfg.MaxLen,
		}
		lens := s.SampleMany(cfg.PerStep, rng)
		out = append(out, TraceStep{
			Step:   step,
			Max:    maxOf(lens),
			P75:    percentileInt(lens, 75),
			Median: percentileInt(lens, 50),
		})
	}
	return out
}

// UnderUtilizedFraction estimates the paper's headline waste metric: the
// mean fraction of the step spent with ≤ 25% of requests still running
// (the gap between p75 completion and the longest response), assuming
// generation time proportional to length.
func UnderUtilizedFraction(trace []TraceStep) float64 {
	if len(trace) == 0 {
		return 0
	}
	var s float64
	for _, t := range trace {
		if t.Max > 0 {
			s += float64(t.Max-t.P75) / float64(t.Max)
		}
	}
	return s / float64(len(trace))
}

// Arrival is one request arrival in a replayable serving trace: when it
// arrives, which task-pool prompt it asks for, its length draw, and the
// seed of its private sampling stream. Everything a cluster replay needs
// to be reproducible lives in the trace, not in the replayer.
type Arrival struct {
	// At is the arrival offset from trace start.
	At time.Duration
	// Task indexes the replayer's task pool.
	Task int
	// TargetLen is the response-length prior draw for this request.
	TargetLen int
	// Seed drives the request's sampling stream.
	Seed int64
}

// ArrivalConfig parameterises GenerateArrivals.
type ArrivalConfig struct {
	// Duration is the trace span.
	Duration time.Duration
	// RatePerSec is the baseline mean arrival rate.
	RatePerSec float64
	// Tasks is the task-pool size arrivals index into.
	Tasks int
	// Lengths draws each arrival's target response length.
	Lengths LengthSampler
	Seed    int64
	// Shape optionally modulates the instantaneous rate: it maps trace
	// progress in [0,1] to a non-negative rate multiplier (nil = constant
	// rate). Burst/lull shaping for the elastic-scaler experiment plugs in
	// here.
	Shape func(frac float64) float64
}

// BurstShape returns a Shape with baseline rate 1x and a mult-x burst over
// the [start, end) fraction of the trace. mult < 1 models a lull instead.
func BurstShape(start, end, mult float64) func(float64) float64 {
	return func(frac float64) float64 {
		if frac >= start && frac < end {
			return mult
		}
		return 1
	}
}

// GenerateArrivals synthesises a deterministic non-homogeneous Poisson
// arrival trace (thinning method): candidates are drawn at the shape's
// peak rate and kept with probability rate(t)/peak. Same config (including
// seed) ⇒ identical trace; arrivals come back sorted by At.
func GenerateArrivals(cfg ArrivalConfig) []Arrival {
	if cfg.Duration <= 0 || cfg.RatePerSec <= 0 {
		return nil
	}
	if cfg.Tasks < 1 {
		cfg.Tasks = 1
	}
	shape := cfg.Shape
	if shape == nil {
		shape = func(float64) float64 { return 1 }
	}
	// The peak multiplier is found on a fixed grid: exact for piecewise
	// shapes like BurstShape, a close bound for smooth ones.
	peak := 0.0
	const grid = 1024
	for i := 0; i <= grid; i++ {
		if m := shape(float64(i) / grid); m > peak {
			peak = m
		}
	}
	if peak <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := cfg.Duration.Seconds()
	var out []Arrival
	for t := rng.ExpFloat64() / (cfg.RatePerSec * peak); t < span; t += rng.ExpFloat64() / (cfg.RatePerSec * peak) {
		keep := rng.Float64() < shape(t/span)/peak
		// Every candidate consumes a fixed number of draws, kept or thinned,
		// so a shape tweak shifts which candidates survive without
		// re-rolling the attributes of the ones that do.
		task := rng.Intn(cfg.Tasks)
		length := cfg.Lengths.Sample(rng)
		seed := int64(rng.Uint64())
		if !keep {
			continue
		}
		out = append(out, Arrival{
			At:        time.Duration(t * float64(time.Second)),
			Task:      task,
			TargetLen: length,
			Seed:      seed,
		})
	}
	return out
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func percentileInt(xs []int, p float64) int {
	if len(xs) == 0 {
		return 0
	}
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return int(metrics.Percentile(f, p))
}
