package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fastrl/internal/cluster"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/workload"
)

func init() {
	register("cluster",
		"Sharded serving cluster: routing policies, load shedding, and elastic drafter training under a bursty trace",
		runCluster)
}

// clusterArm is one routing policy's replay outcome.
type clusterArm struct {
	policy string
	stats  cluster.Stats
	err    error
}

// runCluster replays one production-style bursty arrival trace through a
// sharded cluster once per routing policy. The scaler watches each
// window's offered load: lulls demote shards into coordinator-driven
// drafter spot training (which really updates the arm's drafter, so SD
// accept length is earned, not assumed), and the burst preempts training
// back to serving. Per-policy P50/P95, shed rate, and utilisation are the
// figure; the identical trace (same seeds) across arms makes the policies
// comparable.
func runCluster(opts Options) (*Result, error) {
	b := newBench(gpu.Qwen7B, seedOr(opts, 21), opts.Quick)

	shards, replicas := 4, 1
	window := 500 * time.Millisecond
	windows := 12
	rate := 36.0 // requests/sec baseline
	maxNew := 48
	if opts.Quick {
		windows = 8
		rate = 24
		maxNew = 32
	}
	duration := time.Duration(windows) * window
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   duration,
		RatePerSec: rate,
		Tasks:      len(b.gen.Pool()),
		Lengths:    workload.DefaultLengthSampler(maxNew),
		Seed:       seedOr(opts, 21) ^ 0x6c75,
		// Lull for the first third, 3x burst through the middle third.
		Shape: func(frac float64) float64 {
			switch {
			case frac < 1.0/3:
				return 0.35
			case frac < 2.0/3:
				return 3
			default:
				return 1
			}
		},
	})

	policies := []cluster.Policy{
		cluster.NewRoundRobin(),
		cluster.NewLeastLoaded(),
		cluster.NewPrefixAffinity(4),
	}
	arms := make([]clusterArm, len(policies))
	forEach(len(policies), func(i int) {
		arms[i] = runClusterArm(b, policies[i], arrivals, clusterArmConfig{
			shards: shards, replicas: replicas, window: window,
			windows: windows, maxNew: maxNew,
		})
	})

	res := &Result{}
	tbl := &metrics.Table{Header: []string{
		"policy", "served", "shed%", "p50 ms", "p95 ms", "ttft50 ms", "ttft95 ms", "itl50 ms", "itl95 ms", "util", "accept", "train sessions", "preempts",
	}}
	for _, arm := range arms {
		if arm.err != nil {
			return nil, arm.err
		}
		st := arm.stats
		tbl.AddRow(arm.policy,
			fmt.Sprintf("%d", st.Served),
			metrics.F(100*st.ShedRate, 1),
			metrics.F(float64(st.P50)/float64(time.Millisecond), 2),
			metrics.F(float64(st.P95)/float64(time.Millisecond), 2),
			metrics.F(float64(st.TTFTP50)/float64(time.Millisecond), 2),
			metrics.F(float64(st.TTFTP95)/float64(time.Millisecond), 2),
			metrics.F(float64(st.ITLP50)/float64(time.Millisecond), 2),
			metrics.F(float64(st.ITLP95)/float64(time.Millisecond), 2),
			metrics.F(st.MeanUtilisation, 2),
			metrics.F(st.MeanAcceptLen, 2),
			fmt.Sprintf("%d", st.TrainingSessions),
			fmt.Sprintf("%d", st.Preemptions),
		)
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		fmt.Sprintf("trace: %d arrivals over %v (lull 0.35x, burst 3x), %d shards x %d replica(s)",
			len(arrivals), duration, shards, replicas),
		"lulls park shards in coordinator-driven drafter spot training; the burst preempts them back to serving with a one-window reactive lag (the scaler only sees completed windows), so the burst's first window is where shedding concentrates",
		"latency is queue wall time + virtual decode time; shed requests return typed ErrShedded with retry-after hints",
		"ttft/itl come from the streaming request path every served request now takes: ttft is queue wall + virtual decode to the first token chunk, itl the per-request mean gap between chunks",
		"this figure is a live concurrency measurement: latencies (and shed counts near the admission boundary) vary slightly run-to-run, unlike the seed-deterministic paper figures; token-level determinism is pinned separately by cluster's tests",
		"prefix-affinity concentrates related requests per shard (lower latency, hotter drafter context) at the cost of a higher shed rate under burst — the locality/balance trade-off",
	)
	return res, nil
}

type clusterArmConfig struct {
	shards, replicas int
	window           time.Duration
	windows, maxNew  int
}

// runClusterArm replays the trace through a fresh cluster under one
// policy. Every arm clones the bench drafter so spot training in one arm
// cannot leak accept-length gains into another.
func runClusterArm(b *bench, policy cluster.Policy, arrivals []workload.Arrival, cfg clusterArmConfig) clusterArm {
	arm := clusterArm{policy: policy.Name()}
	drafter := b.eagle.Clone()
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	cl, err := cluster.New(cluster.Config{
		Shards: cfg.shards,
		Shard: serving.Config{
			Engine: ecfg, Replicas: cfg.replicas, QueueDepth: 64,
			AnswerID: b.tk.Answer(), EosID: b.tk.Eos(),
		},
		Policy: policy,
		// Tight enough that the 3x burst overruns per-shard backlogs and
		// the shed-rate column is a real signal, not a constant zero.
		Admission: cluster.AdmissionConfig{MaxPending: 8},
		Scaler: cluster.ScalerConfig{
			// One shard absorbs a window's baseline share of the offered
			// load; the burst forces the full fleet.
			TargetPerShard: float64(len(arrivals)) / float64(cfg.windows) / float64(cfg.shards) * 1.2,
			MinServing:     1,
			IdleThreshold:  2,
		},
	}, b.target, drafter)
	if err != nil {
		arm.err = err
		return arm
	}
	defer cl.Stop()

	next := 0
	prevOffered := 0.0
	for w := 0; w < cfg.windows; w++ {
		windowEnd := time.Duration(w+1) * cfg.window
		batch := arrivals[next:]
		for i, a := range batch {
			if a.At >= windowEnd {
				batch = batch[:i]
				break
			}
		}
		next += len(batch)
		// The scaler is reactive, not clairvoyant: at each window boundary
		// it sees the load that arrived during the window just ended, so a
		// burst's first window lands on a lull-sized fleet (and sheds
		// accordingly) before capacity catches up one window later.
		cl.Scaler().Observe(prevOffered, time.Duration(w)*cfg.window)
		prevOffered = float64(len(batch))

		// Shards the scaler parked in TRAINING spot-train the arm's
		// drafter while the serving shards take the window's traffic.
		// Training runs strictly between windows (no requests in flight),
		// the same no-overlap discipline the coordinator enforces for
		// rollout workers.
		for range cl.Scaler().TrainingShards() {
			drafter.Train(b.corpus, nil, newRand(int64(w)^0x7261))
		}

		var wg sync.WaitGroup
		var errMu sync.Mutex
		for _, a := range batch {
			wg.Add(1)
			go func(a workload.Arrival) {
				defer wg.Done()
				_, err := cl.Serve(context.Background(), cluster.Request{
					Prompt:   b.gen.Pool()[a.Task].Prompt,
					MaxNew:   cfg.maxNew,
					Prior:    workload.LengthPrior{TargetLen: a.TargetLen, Sharpness: 25},
					Seed:     a.Seed,
					Deadline: 4 * cfg.window,
				})
				var shed *cluster.ErrShedded
				if err != nil && !errors.As(err, &shed) {
					// Hard failures surface through the arm error; sheds
					// are expected and counted by the cluster.
					errMu.Lock()
					arm.err = err
					errMu.Unlock()
				}
			}(a)
		}
		wg.Wait()
	}
	cl.Scaler().Observe(prevOffered, time.Duration(cfg.windows)*cfg.window)
	arm.stats = cl.Stats()
	// Belt and braces: every arrival must be accounted for (served or
	// typed shed) — the no-silent-drop property at experiment scale.
	if got := arm.stats.Served + arm.stats.Shed; arm.err == nil && got != len(arrivals) {
		arm.err = fmt.Errorf("cluster arm %s: %d served + %d shed != %d arrivals",
			arm.policy, arm.stats.Served, arm.stats.Shed, len(arrivals))
	}
	return arm
}
