package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastrl/internal/gpu"
)

// smallConfig returns a fast test configuration.
func smallConfig(kind Kind) Config {
	cfg := DefaultConfig()
	cfg.Kind = kind
	cfg.RL.PromptsPerStep = 6
	cfg.RL.GroupSize = 4
	cfg.MaxNew = 128
	cfg.TaskPool = 24
	cfg.ModelBuckets = 1 << 10
	return cfg
}

func TestSystemStepAllKinds(t *testing.T) {
	for _, kind := range []Kind{TLT, TLTBase, VeRL, OpenR1} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := New(smallConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			if kind == TLT {
				sys.WarmUpDrafter(20, 2)
			}
			st, err := sys.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.StepTime <= 0 || st.Tokens == 0 || st.Throughput <= 0 {
				t.Fatalf("degenerate step stats: %+v", st)
			}
			if st.Rollout <= 0 || st.Inference <= 0 || st.Training <= 0 {
				t.Fatalf("missing stage times: %+v", st)
			}
			if st.Rollout+st.Inference+st.Training+st.Other != st.StepTime {
				t.Fatalf("stage times do not sum to step time: %+v", st)
			}
			if len(st.WorkerFinish) == 0 {
				t.Fatal("no worker finish times")
			}
		})
	}
}

// TestStepDoesNotLeakGoroutines pins that an RL step leaves no goroutine
// behind at GOMAXPROCS 2: the rollout batches it drops need no shutdown,
// and it joins the goroutines it starts, so nothing started by a step may
// outlive it.
func TestStepDoesNotLeakGoroutines(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	sys, err := New(smallConfig(TLT))
	if err != nil {
		t.Fatal(err)
	}
	sys.WarmUpDrafter(20, 2)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := sys.Step(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails the test unless the process is back at base
// goroutines within five seconds: a goroutine that has returned is not
// reaped synchronously, so it polls.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStepIndependentOfGOMAXPROCS pins that no figure of a step depends
// on how many goroutines run it. TLT runs its rollout workers wide, spot
// training beside the inference stage and the harvest in parallel;
// TLT-Base's online n-gram drafter runs its workers one after another.
// Each warms up and steps three times at GOMAXPROCS 1 and at 4: every
// StepStats field and the weights (the Eagle drafter's and the target's)
// must match, and the warm-up and each step must leave as many goroutines
// as they found.
func TestStepIndependentOfGOMAXPROCS(t *testing.T) {
	run := func(t *testing.T, kind Kind, procs int) ([]StepStats, uint64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		// Short responses keep the race job's ten runs quick.
		cfg := smallConfig(kind)
		cfg.MaxNew = 32
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		sys.WarmUpDrafter(10, 1)
		waitGoroutines(t, base)
		var steps []StepStats
		for i := 0; i < 3; i++ {
			st, err := sys.Step()
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
			steps = append(steps, st)
		}
		return steps, weightHash(sys)
	}
	for _, kind := range []Kind{TLT, TLTBase} {
		t.Run(kind.String(), func(t *testing.T) {
			one, hashOne := run(t, kind, 1)
			four, hashFour := run(t, kind, 4)
			if kind == TLT && one[1].SpotBatches+one[2].SpotBatches == 0 {
				t.Fatal("no spot training ran, so its overlap went untested")
			}
			for i := range one {
				if !reflect.DeepEqual(one[i], four[i]) {
					t.Fatalf("step %d differs:\n GOMAXPROCS 1: %+v\n GOMAXPROCS 4: %+v", i+1, one[i], four[i])
				}
			}
			if hashOne != hashFour {
				t.Fatalf("weights hash to %#016x at GOMAXPROCS 1 and %#016x at 4", hashOne, hashFour)
			}
		})
	}
}

func TestRolloutDominatesStepTime(t *testing.T) {
	// Fig 1(a): the rollout stage consumes the large majority of the step.
	sys, err := New(smallConfig(VeRL))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Step()
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(st.Rollout) / float64(st.StepTime)
	if frac < 0.6 {
		t.Fatalf("rollout fraction %.2f, expected the dominant share", frac)
	}
	t.Logf("rollout fraction of step time: %.2f", frac)
}

func TestTLTFasterThanVeRL(t *testing.T) {
	// The headline end-to-end claim at test scale: TLT throughput beats
	// the VeRL baseline on the same workload.
	run := func(kind Kind) float64 {
		cfg := smallConfig(kind)
		cfg.Seed = 5
		cfg.RL.PromptsPerStep = 8
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if kind == TLT {
			sys.WarmUpDrafter(30, 3)
		}
		var tput float64
		const steps = 3
		for i := 0; i < steps; i++ {
			st, err := sys.Step()
			if err != nil {
				t.Fatal(err)
			}
			tput += st.Throughput
		}
		return tput / steps
	}
	verl := run(VeRL)
	tlt := run(TLT)
	if tlt <= verl {
		t.Fatalf("TLT throughput %.0f should beat VeRL %.0f", tlt, verl)
	}
	t.Logf("throughput: TLT %.0f tok/s vs VeRL %.0f tok/s (%.2fx)", tlt, verl, tlt/verl)
}

func TestOpenR1SlowerThanVeRL(t *testing.T) {
	run := func(kind Kind) float64 {
		cfg := smallConfig(kind)
		cfg.Seed = 6
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		return st.Throughput
	}
	if openr1, verl := run(OpenR1), run(VeRL); openr1 >= verl {
		t.Fatalf("Open-R1 %.0f tok/s should trail VeRL %.0f tok/s", openr1, verl)
	}
}

func TestSpotTrainingHappensAndUsesIdleTime(t *testing.T) {
	cfg := smallConfig(TLT)
	cfg.RL.PromptsPerStep = 8
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.WarmUpDrafter(20, 2)
	// Step 1 fills the DataBuffer; spot training starts once data exists.
	if _, err := sys.Step(); err != nil {
		t.Fatal(err)
	}
	versionAfter1 := sys.Eagle.Version
	st, err := sys.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpotBatches == 0 {
		t.Fatalf("no spot training in step 2: %+v", st)
	}
	if sys.Eagle.Version <= versionAfter1 {
		t.Fatal("drafter version did not advance")
	}
	// SpotTime aggregates GPU time across parallel worker windows, so it
	// is bounded by rollout wall time times the worker count.
	bound := st.Rollout * time.Duration(DefaultCluster(gpu.H100, 1, 2).Workers())
	if st.SpotTime <= 0 || st.SpotTime > bound {
		t.Fatalf("spot time %v outside aggregate idle bound %v", st.SpotTime, bound)
	}
}

func TestDisableSpotFreezesDrafter(t *testing.T) {
	cfg := smallConfig(TLT)
	cfg.DisableSpot = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.WarmUpDrafter(10, 1)
	v := sys.Eagle.Version
	for i := 0; i < 2; i++ {
		st, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.SpotBatches != 0 {
			t.Fatal("spot training ran while disabled")
		}
	}
	if sys.Eagle.Version != v {
		t.Fatal("drafter trained while spot disabled")
	}
}

func TestRewardImprovesUnderTLT(t *testing.T) {
	cfg := smallConfig(TLT)
	cfg.RL.PromptsPerStep = 12
	cfg.RL.GroupSize = 6
	cfg.DisableLengthPrior = true // learning-dynamics setting (as in Fig. 12)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.WarmUpDrafter(20, 2)
	var head, tail float64
	const steps = 10
	for i := 0; i < steps; i++ {
		st, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			head += st.Summary.MeanReward
		}
		if i >= steps-3 {
			tail += st.Summary.MeanReward
		}
	}
	if tail <= head {
		t.Fatalf("reward did not improve under TLT: first3 %.3f -> last3 %.3f", head/3, tail/3)
	}
	t.Logf("reward first3 %.3f -> last3 %.3f", head/3, tail/3)
}

func TestCheckMemoryOOM(t *testing.T) {
	cfg := smallConfig(VeRL)
	cfg.Arch = gpu.Qwen32B
	cfg.Cluster = DefaultCluster(gpu.H100, 1, 4)
	cfg.RL.PromptsPerStep = 64
	cfg.RL.GroupSize = 8
	cfg.MaxNew = 32768 // the paper's generation cap
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckMemory(); err == nil {
		t.Fatal("expected OOM for 32B on one node at long max length")
	} else if !strings.Contains(err.Error(), "OOM") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Scaling out resolves it.
	cfg.Cluster = DefaultCluster(gpu.H100, 8, 4)
	sys2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.CheckMemory(); err != nil {
		t.Fatalf("8 nodes should fit: %v", err)
	}
}

func TestClusterWorkers(t *testing.T) {
	c := DefaultCluster(gpu.H100, 2, 4)
	if c.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", c.Workers())
	}
	c.TP = 64 // degenerate: clamps to 1 worker
	if c.Workers() != 1 {
		t.Fatalf("degenerate workers = %d", c.Workers())
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxNew = 2
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for tiny MaxNew")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{TLT: "TLT", TLTBase: "TLT-Base", VeRL: "VeRL", OpenR1: "Open-R1"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestStepDeterminism(t *testing.T) {
	run := func() time.Duration {
		sys, err := New(smallConfig(TLT))
		if err != nil {
			t.Fatal(err)
		}
		sys.WarmUpDrafter(10, 1)
		st, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		return st.StepTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed systems diverge: %v vs %v", a, b)
	}
}
