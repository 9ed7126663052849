package cluster

import (
	"context"
	"reflect"
	"testing"

	"fastrl/internal/prefixcache"
)

// TestClusterCacheWiring runs traffic through a prefix-affinity cluster
// and checks per-shard caches receive inserts, stats surface the probes,
// and repeated prompts concentrate on the shard that served them first.
func TestClusterCacheWiring(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cfg := clusterConfig(tk, 3, 1)
	cfg.Caches = NewShardCaches(cfg.Shards, prefixcache.Config{})
	cfg.Policy = NewPrefixAffinity(8)
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	task := gen.Pool()[3]
	var shards []int
	for i := 0; i < 4; i++ {
		resp, err := cl.Serve(context.Background(), Request{Prompt: task.Prompt, MaxNew: 24, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, resp.Shard)
	}
	// Every identical prompt must be routed back to the shard that served
	// (and cached) it first.
	for i := 1; i < len(shards); i++ {
		if shards[i] != shards[0] {
			t.Fatalf("request %d routed to shard %d, want affinity shard %d (routes %v)",
				i, shards[i], shards[0], shards)
		}
	}
	st := cl.Stats()
	if st.CacheSavedPositions == 0 {
		t.Fatal("no prefill positions saved cluster-wide")
	}
	var withBytes int
	for _, ss := range st.Shards {
		if ss.CacheBytes > 0 {
			withBytes++
		}
	}
	if withBytes == 0 {
		t.Fatal("no shard reports resident cache bytes")
	}
}

// TestClusterCacheMismatch pins the Caches/Shards validation.
func TestClusterCacheMismatch(t *testing.T) {
	target, e, tk, _ := clusterSetup(t)
	cfg := clusterConfig(tk, 3, 1)
	cfg.Caches = NewShardCaches(2, prefixcache.Config{})
	if _, err := New(cfg, target, e); err == nil {
		t.Fatal("expected cache/shard count mismatch error")
	}
}

// TestCacheRoutingDeterministic replays the same sequential request
// stream through two identically-configured prefix-affinity clusters with
// per-shard caches and requires identical routing and identical response
// tokens — the seed-determinism property the bench experiment relies on.
func TestCacheRoutingDeterministic(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)

	run := func() ([]int, [][]int) {
		cfg := clusterConfig(tk, 3, 1)
		cfg.Caches = NewShardCaches(cfg.Shards, prefixcache.Config{})
		cfg.Policy = NewPrefixAffinity(8)
		cl, err := New(cfg, target, e.Clone())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		var shards []int
		var tokens [][]int
		for i := 0; i < 12; i++ {
			task := gen.Pool()[i%4]
			resp, err := cl.Serve(context.Background(), Request{
				Prompt: task.Prompt, MaxNew: 16, Seed: int64(i * 7),
			})
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, resp.Shard)
			tokens = append(tokens, resp.Tokens)
		}
		return shards, tokens
	}

	s1, t1 := run()
	s2, t2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("routing diverged: %v vs %v", s1, s2)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("response tokens diverged under identical seeds")
	}
}
