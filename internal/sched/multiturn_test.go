package sched

import (
	"math/rand"
	"testing"
	"time"

	"fastrl/internal/gpu"
	"fastrl/internal/workload"
)

func TestToolProfileEnabled(t *testing.T) {
	if (ToolProfile{}).Enabled() {
		t.Fatal("zero profile should be disabled")
	}
	if !(ToolProfile{Every: 10, Latency: time.Millisecond}).Enabled() {
		t.Fatal("configured profile should be enabled")
	}
	if (ToolProfile{Every: 10}).Enabled() {
		t.Fatal("zero-latency profile should be disabled")
	}
}

func TestToolCallsPauseDecoding(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 4, 80, 50)
	for _, r := range reqs {
		r.Prior = workload.LengthPrior{TargetLen: 70, Sharpness: 20}
		r.Tool = ToolProfile{Every: 20, Latency: 30 * time.Millisecond, MaxCalls: 2}
	}
	stats := eng.Run(reqs, rand.New(rand.NewSource(51)), 0)
	if stats.ToolCalls == 0 {
		t.Fatal("no tool calls recorded")
	}
	if stats.ToolWaitTime == 0 {
		t.Fatal("no tool wait time accounted")
	}
	for _, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d stuck", r.ID)
		}
		if r.ToolCalls() > 2 {
			t.Fatalf("request %d exceeded MaxCalls: %d", r.ID, r.ToolCalls())
		}
	}
}

func TestToolCallsExtendElapsedTime(t *testing.T) {
	env := newEnv(t)
	run := func(withTools bool) Stats {
		cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		cfg.SDThreshold = -1
		eng, err := New(cfg, env.target, nil)
		if err != nil {
			t.Fatal(err)
		}
		reqs := env.requests(t, 1, 60, 52)
		reqs[0].Prior = workload.LengthPrior{TargetLen: 55, Sharpness: 20}
		if withTools {
			reqs[0].Tool = ToolProfile{Every: 10, Latency: 50 * time.Millisecond}
		}
		return eng.Run(reqs, rand.New(rand.NewSource(53)), 0)
	}
	with := run(true)
	without := run(false)
	if with.Elapsed <= without.Elapsed {
		t.Fatalf("tool calls should extend elapsed time: %v vs %v", with.Elapsed, without.Elapsed)
	}
	// The extension must be at least the accumulated tool wait of the
	// single request (it is the only one, so waits serialise).
	if with.Elapsed-without.Elapsed < with.ToolWaitTime/2 {
		t.Fatalf("tool wait not reflected in elapsed: delta %v, wait %v",
			with.Elapsed-without.Elapsed, with.ToolWaitTime)
	}
}

func TestToolWaitsShrinkDecodingBatch(t *testing.T) {
	// With staggered tool calls, some iterations must run at a smaller
	// batch than the full request count.
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 6, 80, 54)
	for i, r := range reqs {
		r.Prior = workload.LengthPrior{TargetLen: 70, Sharpness: 20}
		r.Tool = ToolProfile{Every: 15 + i, Latency: 40 * time.Millisecond}
	}
	stats := eng.Run(reqs, rand.New(rand.NewSource(55)), 0)
	sawSmall := false
	for _, p := range stats.Profile {
		if p.Running < len(reqs) && p.Running > 0 {
			sawSmall = true
		}
	}
	if !sawSmall {
		t.Fatal("tool waits never shrank the decoding batch")
	}
}

func TestKVBudgetQueuesRequests(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	// Budget fits roughly 2 requests' KV at 100 tokens.
	perTok := env.target.Arch().KVBytesPerToken()
	cfg.KVBudgetBytes = 2.5 * perTok * 100
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 8, 100, 56)
	for _, r := range reqs {
		r.Prior = workload.LengthPrior{TargetLen: 95, Sharpness: 20}
	}
	stats := eng.Run(reqs, rand.New(rand.NewSource(57)), 0)
	if stats.QueuedSteps == 0 {
		t.Fatal("KV budget never queued requests")
	}
	// The budget binds progressively as KV grows: a substantial share of
	// iterations must run at a small resident batch even though 8
	// requests exist (fresh queued requests restart at prompt length, so
	// the bound is behavioural, not a fixed cap).
	small := 0
	for _, p := range stats.Profile {
		if p.Running <= 3 {
			small++
		}
	}
	if float64(small) < 0.25*float64(len(stats.Profile)) {
		t.Fatalf("KV budget rarely bound: %d/%d small-batch iterations", small, len(stats.Profile))
	}
	for _, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d starved", r.ID)
		}
	}
}

func TestKVBudgetGuaranteesProgress(t *testing.T) {
	env := newEnv(t)
	cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	cfg.SDThreshold = -1
	cfg.KVBudgetBytes = 1 // absurdly small: still must make progress
	eng, err := New(cfg, env.target, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := env.requests(t, 3, 40, 58)
	stats := eng.Run(reqs, rand.New(rand.NewSource(59)), 0)
	if stats.ResponseTokens == 0 {
		t.Fatal("no progress under tiny KV budget")
	}
	for _, r := range reqs {
		if !r.Done {
			t.Fatalf("request %d starved", r.ID)
		}
	}
}

func TestKVBudgetCreatesSDSweetSpot(t *testing.T) {
	// Paper §7: under KV pressure the resident batch is small, so SD
	// accelerates even "uniformly long" workloads with no length tail.
	env := newEnv(t)
	perTok := env.target.Arch().KVBytesPerToken()
	run := func(threshold int) Stats {
		cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		cfg.SDThreshold = threshold
		cfg.KVBudgetBytes = 3 * perTok * 300
		var eng *Batch
		var err error
		if threshold >= 0 {
			eng, err = New(cfg, env.target, env.eagle)
		} else {
			eng, err = New(cfg, env.target, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		reqs := env.requests(t, 12, 300, 60)
		for _, r := range reqs {
			// Uniformly long: no tail, every response ~280 tokens.
			r.Prior = workload.LengthPrior{TargetLen: 280, Sharpness: 25}
		}
		return eng.Run(reqs, rand.New(rand.NewSource(61)), 0)
	}
	sd := run(32)
	van := run(-1)
	if sd.Elapsed >= van.Elapsed {
		t.Fatalf("SD should win under KV pressure: %v vs %v", sd.Elapsed, van.Elapsed)
	}
	t.Logf("uniformly-long + KV budget: SD %.2fx faster (accept %.2f)",
		van.Elapsed.Seconds()/sd.Elapsed.Seconds(), sd.MeanAcceptLen())
}
