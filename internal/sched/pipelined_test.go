package sched

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
)

// TestContinuousPipelinedMatchesSerial pins end-to-end bit-identity of
// the scheduler when the specdec engine's software-pipelined rounds are
// active: the same continuous-batching run — staggered admissions,
// retirements, per-request RNGs — must deliver identical token streams
// and accept-length traces whether StepBatch overlaps its stages
// (GOMAXPROCS > 1) or runs them serially. This is the scheduler-level
// companion to specdec's TestStepBatchPipelinedMatchesSerial: it drives
// the pipeline through sdStep with real admission churn, with and
// without a prefix cache.
func TestContinuousPipelinedMatchesSerial(t *testing.T) {
	env := newEnv(t)
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	const nReqs = 6
	const maxNew = 40

	build := func() []*Request {
		reqs := make([]*Request, nReqs)
		for i := range reqs {
			reqs[i] = env.poolRequest(i, i, maxNew, int64(7000+i))
		}
		return reqs
	}
	runCont := func(t *testing.T, cached bool, maxprocs int) []*Request {
		t.Helper()
		runtime.GOMAXPROCS(maxprocs)
		cfg := fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1))
		if cached {
			cfg.Cache = prefixcache.New(prefixcache.Config{})
		}
		b, err := New(cfg, env.target, env.eagle)
		if err != nil {
			t.Fatal(err)
		}
		reqs := build()
		rng := rand.New(rand.NewSource(3))
		next := 0
		for step := 0; b.ActiveCount() > 0 || next < len(reqs); step++ {
			if step > 100000 {
				t.Fatal("continuous run did not converge")
			}
			if next < len(reqs) && step%3 != 2 {
				b.Admit(reqs[next])
				next++
			}
			b.Step(rng)
			b.Retire()
		}
		return reqs
	}

	for _, cached := range []bool{false, true} {
		name := "nocache"
		if cached {
			name = "cache"
		}
		t.Run(name, func(t *testing.T) {
			serial := runCont(t, cached, 1)
			piped := runCont(t, cached, 2)
			for i := range serial {
				s, p := serial[i], piped[i]
				if len(s.Tokens) != len(p.Tokens) {
					t.Fatalf("request %d: serial %d tokens, pipelined %d", i, len(s.Tokens), len(p.Tokens))
				}
				for j := range s.Tokens {
					if s.Tokens[j] != p.Tokens[j] {
						t.Fatalf("request %d diverges at position %d: serial %d vs pipelined %d",
							i, j, s.Tokens[j], p.Tokens[j])
					}
				}
				if len(s.AcceptLens) != len(p.AcceptLens) {
					t.Fatalf("request %d: serial %d SD rounds, pipelined %d",
						i, len(s.AcceptLens), len(p.AcceptLens))
				}
				for j := range s.AcceptLens {
					if s.AcceptLens[j] != p.AcceptLens[j] {
						t.Fatalf("request %d round %d: accept %d vs %d",
							i, j, s.AcceptLens[j], p.AcceptLens[j])
					}
				}
				if s.EosSeen != p.EosSeen {
					t.Fatalf("request %d: EOS flag diverged", i)
				}
			}
		})
	}
}

// TestCloseStopsPipelineWorkers pins the Close contract: pipelined SD
// rounds start the speculation engine's two stage workers, and Close
// stops them, so a dropped batch leaves no goroutine (and through it no
// batch) behind. Close is idempotent, and a closed batch that steps again
// restarts its workers for the next Close to stop.
func TestCloseStopsPipelineWorkers(t *testing.T) {
	env := newEnv(t)
	old := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	base := runtime.NumGoroutine()

	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.Admit(env.poolRequest(i, i, 1<<20, int64(600+i)))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		b.Step(rng)
	}
	if got := runtime.NumGoroutine() - base; got < 2 {
		t.Fatalf("pipelined rounds started %d goroutines, want the 2 stage workers", got)
	}
	b.Close()
	waitGoroutines(t, base)
	b.Close()
	waitGoroutines(t, base)

	b.Step(rng)
	b.Close()
	waitGoroutines(t, base)
}

// waitGoroutines polls until at most want goroutines remain, failing after
// a deadline: a goroutine that has returned is not reaped synchronously.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
