package sched

import (
	"math/rand"
	"testing"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/workload"
)

func TestVanillaRunCompletes(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1 // SD disabled
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 8, 120, 1)
	stats := eng.Run(reqs, rand.New(rand.NewSource(2)), 0)

	if stats.SDSteps != 0 {
		t.Fatalf("SD ran while disabled: %d steps", stats.SDSteps)
	}
	if stats.VanillaSteps == 0 {
		t.Fatal("no vanilla steps recorded")
	}
	var total int
	for _, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d not done", r.ID)
		}
		if r.Generated() > r.MaxNew {
			t.Fatalf("request %d overflowed MaxNew: %d > %d", r.ID, r.Generated(), r.MaxNew)
		}
		total += r.Generated()
	}
	if total != stats.ResponseTokens {
		t.Fatalf("token accounting mismatch: %d vs %d", total, stats.ResponseTokens)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	// The batch is fresh, so the run spans virtual time [0, Elapsed].
	for _, r := range reqs {
		if r.FinishedAt() <= 0 || r.FinishedAt() > stats.Elapsed {
			t.Fatalf("request %d finished at %v, outside the run [0, %v]", r.ID, r.FinishedAt(), stats.Elapsed)
		}
	}
}

func TestSDFasterThanVanillaAtSmallBatch(t *testing.T) {
	env := newEnv(t)
	dev := gpu.NewDevice(gpu.H100, 1)

	run := func(threshold int) Stats {
		cfg := DefaultConfig(dev)
		cfg.SDThreshold = threshold
		var dr draft.Drafter
		if threshold >= 0 {
			dr = env.eagle
		}
		eng, err := New(cfg, env.target, dr)
		if err != nil {
			t.Fatal(err)
		}
		reqs := env.requests(t, 2, 300, 7)
		// Pin long responses so decode dominates.
		for _, r := range reqs {
			r.Prior = workload.LengthPrior{TargetLen: 280, Sharpness: 12}
		}
		return eng.Run(reqs, rand.New(rand.NewSource(3)), 0)
	}
	vanilla := run(-1)
	sd := run(0) // always SD
	if sd.SDSteps == 0 {
		t.Fatal("SD never engaged")
	}
	speedup := vanilla.Elapsed.Seconds() / sd.Elapsed.Seconds()
	if speedup < 1.2 {
		t.Fatalf("SD speedup %.2fx at batch 2, want > 1.2x (accept len %.2f)",
			speedup, sd.MeanAcceptLen())
	}
	t.Logf("SD speedup %.2fx, accept len %.2f", speedup, sd.MeanAcceptLen())
}

func TestElasticActivation(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = 4
	eng, err := New(cfg, env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 12, 100, 5)
	stats := eng.Run(reqs, rand.New(rand.NewSource(6)), 0)

	// SD must only appear in iterations with <= threshold running.
	for _, p := range stats.Profile {
		if p.Mode == ModeSD && p.Running > cfg.SDThreshold {
			t.Fatalf("SD ran at batch %d above threshold %d", p.Running, cfg.SDThreshold)
		}
	}
	if stats.SDSteps == 0 {
		t.Fatal("SD never engaged in the long tail")
	}
	if stats.VanillaSteps == 0 {
		t.Fatal("vanilla phase missing at large batch")
	}
	if stats.SwitchCount == 0 {
		t.Fatal("switch cost not accounted")
	}
}

func TestProfileMonotoneAndShrinking(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	eng, err := New(cfg, env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 16, 150, 8)
	stats := eng.Run(reqs, rand.New(rand.NewSource(9)), 0)
	prevEnd := time.Duration(-1)
	prevRunning := 1 << 30
	for i, p := range stats.Profile {
		if p.End <= prevEnd {
			t.Fatalf("profile step %d: time not increasing", i)
		}
		prevEnd = p.End
		if p.Running > prevRunning {
			t.Fatalf("profile step %d: running count grew %d -> %d", i, prevRunning, p.Running)
		}
		prevRunning = p.Running
	}
}

func TestMABReceivesRewards(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = 0
	eng, err := New(cfg, env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 4, 120, 10)
	eng.Run(reqs, rand.New(rand.NewSource(11)), 0)
	sel := eng.Selector()
	anyReward := false
	for _, a := range sel.Arms() {
		if sel.MedianReward(a) > 0 {
			anyReward = true
		}
	}
	if !anyReward {
		t.Fatal("MAB selector received no rewards")
	}
}

func TestNGramDrafterEngine(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = 0
	g := draft.NewNGram(env.tk.VocabSize(), 1, 3)
	eng, err := New(cfg, env.target, g)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 4, 100, 12)
	stats := eng.Run(reqs, rand.New(rand.NewSource(13)), 0)
	if stats.SDSteps == 0 {
		t.Fatal("model-free SD never ran")
	}
	// The observer interface must have been fed.
	if g.Size() == 0 {
		t.Fatal("ngram drafter observed nothing")
	}
}

func TestRunDeterminism(t *testing.T) {
	env := newEnv(t)
	// Materialise the request set once: TaskGen sampling advances shared
	// state, so each run gets an independent deep copy.
	proto := env.requests(t, 6, 80, 20)
	run := func() Stats {
		cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		eng, err := New(cfg, env.target, env.eagle.Clone())
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]*Request, len(proto))
		for i, r := range proto {
			reqs[i] = NewRequest(r.ID, r.Prompt, r.MaxNew, r.Prior, r.AnswerID, r.EosID)
		}
		return eng.Run(reqs, rand.New(rand.NewSource(21)), 0)
	}
	a, b := run(), run()
	if a.ResponseTokens != b.ResponseTokens || a.Elapsed != b.Elapsed {
		t.Fatalf("same-seed runs diverge: %d/%v vs %d/%v",
			a.ResponseTokens, a.Elapsed, b.ResponseTokens, b.Elapsed)
	}
}

func TestGraphPlanSelection(t *testing.T) {
	env := newEnv(t)
	for _, plan := range []string{"bucketed", "single", "naive", "none"} {
		cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		cfg.GraphPlan = plan
		eng, err := New(cfg, env.target, env.eagle)
		if err != nil {
			t.Fatalf("plan %q: %v", plan, err)
		}
		if eng.Pool() == nil {
			t.Fatalf("plan %q: nil pool", plan)
		}
	}
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.GraphPlan = "bogus"
	if _, err := New(cfg, env.target, env.eagle); err == nil {
		t.Fatal("expected error for unknown plan")
	}
}

func TestNilDeviceRejected(t *testing.T) {
	env := newEnv(t)
	if _, err := New(Config{}, env.target, nil); err == nil {
		t.Fatal("expected error for nil device")
	}
}

func TestLongTailProfileShape(t *testing.T) {
	// With a long-tail length prior, most of the run's iterations should
	// execute at small batch sizes — the under-utilised zone TLT targets.
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 24, 400, 30)
	stats := eng.Run(reqs, rand.New(rand.NewSource(31)), 0)

	var smallBatchTime, totalTime time.Duration
	var prev time.Duration
	for _, p := range stats.Profile {
		dt := p.End - prev
		prev = p.End
		totalTime += dt
		if p.Running <= len(reqs)/4 {
			smallBatchTime += dt
		}
	}
	frac := float64(smallBatchTime) / float64(totalTime)
	if frac < 0.2 {
		t.Fatalf("long-tail fraction %.2f too small — workload not heavy-tailed", frac)
	}
	t.Logf("fraction of time at <=25%% batch: %.2f", frac)
}
