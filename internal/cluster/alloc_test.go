package cluster

import "testing"

// TestRouterZeroAlloc pins the router's steady-state hot path — live-set
// snapshot plus policy pick — at zero heap allocations per routed request
// for every shipped policy, matching the repo's perf methodology
// (ROADMAP: steady-state hot paths stay at 0 allocs/op).
func TestRouterZeroAlloc(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	prompt := gen.Pool()[0].Prompt
	policies := []Policy{NewRoundRobin(), NewLeastLoaded(), NewPrefixAffinity(8)}
	for _, p := range policies {
		cfg := clusterConfig(tk, 4, 1)
		cfg.Policy = p
		cl, err := New(cfg, target, e)
		if err != nil {
			t.Fatal(err)
		}
		// Warm once so lazily-grown state (none expected) is excluded.
		cl.PickShard(prompt)
		if avg := testing.AllocsPerRun(1000, func() {
			cl.PickShard(prompt)
		}); avg != 0 {
			t.Errorf("%s: %v allocs/op on the router hot path, want 0", p.Name(), avg)
		}
		cl.Stop()
	}
}

func BenchmarkRouterPick(b *testing.B) {
	target, e, tk, gen := clusterSetup(b)
	prompt := gen.Pool()[0].Prompt
	for _, p := range []Policy{NewRoundRobin(), NewLeastLoaded(), NewPrefixAffinity(8)} {
		b.Run(p.Name(), func(b *testing.B) {
			cfg := clusterConfig(tk, 8, 1)
			cfg.Policy = p
			cl, err := New(cfg, target, e)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.PickShard(prompt)
			}
		})
	}
}
