package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/specdec"
	"fastrl/internal/tokenizer"
)

// failoverConfig pins one SD strategy (like serving's
// fixedStrategyServerConfig) so a request's token stream depends only on
// its private seed — the property that makes a failover replay
// bit-identical regardless of what else the surviving shard is decoding.
func failoverConfig(tk *tokenizer.Tokenizer, shards, replicas int) Config {
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	ecfg.Strategies = []specdec.Params{{DraftDepth: 6, TopK: 6, TokensToVerify: 24}}
	ecfg.MAB.Thresholds = []int{1}
	return Config{
		Shards:   shards,
		Shard:    serving.Config{Engine: ecfg, Replicas: replicas, MaxBatch: 8, AnswerID: tk.Answer(), EosID: tk.Eos()},
		Failover: FailoverConfig{Enabled: true},
	}
}

// streamedResult is everything a client observes from one stream.
type streamedResult struct {
	tokens  []int
	accepts int
	usage   serving.Response
}

// driveStream pulls a stream to EOF. When firstChunk/proceed are non-nil
// it signals after delivering the first token chunk and then parks until
// proceed closes — the hook the fault tests use to land a fault strictly
// after partial delivery.
func driveStream(st *Stream, firstChunk chan<- struct{}, proceed <-chan struct{}) streamedResult {
	var res streamedResult
	first := false
	for {
		ev, err := st.Recv()
		if err != nil {
			return res
		}
		switch ev.Kind {
		case serving.EventTokens:
			res.tokens = append(res.tokens, ev.Tokens...)
			if !first {
				first = true
				if firstChunk != nil {
					firstChunk <- struct{}{}
					<-proceed
				}
			}
		case serving.EventAccept:
			res.accepts++
		case serving.EventUsage:
			res.usage = ev.Usage
		}
	}
}

// runFailoverScenario serves the given requests on a fresh 2-shard
// cluster, calls fault (if non-nil) once every stream has delivered its
// first token chunk, and returns each request's fully drained stream.
func runFailoverScenario(t *testing.T, reqs []Request, fault func(cl *Cluster)) ([]streamedResult, Stats) {
	t.Helper()
	target, e, tk, _ := clusterSetup(t)
	cl, err := New(failoverConfig(tk, 2, 1), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if fault != nil {
		// Stall shard 0 so its requests are still decoding when the fault
		// lands: first-chunk delivery then becomes a guarantee of a
		// mid-flight fault, not a race against completion.
		cl.SlowShard(0, 20*time.Millisecond, 0)
	}

	results := make([]streamedResult, len(reqs))
	firstChunk := make(chan struct{}, len(reqs))
	proceed := make(chan struct{})
	if fault == nil {
		firstChunk = nil
	}
	var wg sync.WaitGroup
	for i, req := range reqs {
		st, err := cl.Stream(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			var fc chan<- struct{}
			if firstChunk != nil {
				fc = firstChunk
			}
			results[i] = driveStream(st, fc, proceed)
		}(i, st)
	}
	if fault != nil {
		for range reqs {
			<-firstChunk
		}
		fault(cl)
		close(proceed)
	}
	wg.Wait()
	return results, cl.Stats()
}

// TestFailoverStreamEquivalence pins the failover determinism invariant:
// for both fault types (crash, monitor-escalated hang) every delivered
// stream — token chunks and terminal usage — is bit-identical to an
// unfailed run under the same seeds, with zero duplicate deliveries. The
// replay regenerates the stream from the request's private RNG and
// prompt; the session suppresses the already-delivered prefix.
func TestFailoverStreamEquivalence(t *testing.T) {
	_, _, _, gen := clusterSetup(t)
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{
			Prompt: gen.Pool()[i].Prompt,
			MaxNew: 48,
			Seed:   int64(100 + i),
		})
	}

	ref, refStats := runFailoverScenario(t, reqs, nil)
	for i, r := range ref {
		if r.usage.Err != nil {
			t.Fatalf("reference request %d failed: %v", i, r.usage.Err)
		}
		if len(r.tokens) == 0 {
			t.Fatalf("reference request %d streamed no tokens", i)
		}
	}
	if refStats.Failovers != 0 {
		t.Fatalf("reference run failed over %d times", refStats.Failovers)
	}

	faults := map[string]func(cl *Cluster){
		"crash": func(cl *Cluster) {
			cl.CrashShard(0, time.Second)
		},
		"hang": func(cl *Cluster) {
			// A hang terminates nothing by itself; the health monitor must
			// notice the stalled step counter and escalate to a crash.
			cl.HangShard(0, time.Second)
			mon := cl.NewMonitor()
			deadline := time.Now().Add(10 * time.Second)
			for escalated := false; !escalated; {
				if time.Now().After(deadline) {
					t.Fatal("monitor never escalated the hang")
				}
				time.Sleep(2 * time.Millisecond)
				for _, ev := range mon.Poll(time.Second) {
					if ev.Shard == 0 && ev.Kind == FaultCrash {
						escalated = true
					}
				}
			}
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			got, stats := runFailoverScenario(t, reqs, fault)
			for i := range reqs {
				if got[i].usage.Err != nil {
					t.Fatalf("request %d failed across %s: %v", i, name, got[i].usage.Err)
				}
				if len(got[i].tokens) != len(ref[i].tokens) {
					t.Fatalf("request %d: streamed %d tokens, reference %d",
						i, len(got[i].tokens), len(ref[i].tokens))
				}
				for j := range ref[i].tokens {
					if got[i].tokens[j] != ref[i].tokens[j] {
						t.Fatalf("request %d: streamed token %d differs from reference", i, j)
					}
				}
				if len(got[i].usage.Tokens) != len(ref[i].usage.Tokens) {
					t.Fatalf("request %d: usage %d tokens, reference %d",
						i, len(got[i].usage.Tokens), len(ref[i].usage.Tokens))
				}
				for j := range ref[i].usage.Tokens {
					if got[i].usage.Tokens[j] != ref[i].usage.Tokens[j] {
						t.Fatalf("request %d: usage token %d differs from reference", i, j)
					}
				}
				if got[i].usage.AcceptLen != ref[i].usage.AcceptLen {
					t.Fatalf("request %d: accept length %v, reference %v",
						i, got[i].usage.AcceptLen, ref[i].usage.AcceptLen)
				}
				if got[i].accepts != ref[i].accepts {
					t.Fatalf("request %d: %d accept events, reference %d",
						i, got[i].accepts, ref[i].accepts)
				}
			}
			if stats.Failovers == 0 {
				t.Fatal("fault landed but nothing failed over")
			}
			if stats.DuplicateDeliveries != 0 {
				t.Fatalf("%d duplicate deliveries, want 0", stats.DuplicateDeliveries)
			}
			if stats.Errored != 0 {
				t.Fatalf("%d requests errored, want 0", stats.Errored)
			}
		})
	}
}

// TestStopIdempotent pins that cluster.Stop and the shard servers' Stop
// are idempotent and safe concurrently with each other and with
// failover-driven teardown (CrashShard racing Stop).
func TestStopIdempotent(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cl, err := New(failoverConfig(tk, 2, 1), target, e)
	if err != nil {
		t.Fatal(err)
	}
	// Seed some inflight work so teardown really races live requests.
	for i := 0; i < 4; i++ {
		if _, err := cl.Stream(context.Background(), Request{
			Prompt: gen.Pool()[i].Prompt, MaxNew: 32, Seed: int64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); cl.Stop() }()
	}
	wg.Add(2)
	go func() { defer wg.Done(); cl.CrashShard(0, time.Second) }()
	go func() { defer wg.Done(); cl.shards[1].server().Stop() }()
	wg.Wait()
	cl.Stop() // still safe after everything settled
	if _, err := cl.Stream(context.Background(), Request{Prompt: gen.Pool()[0].Prompt, MaxNew: 8}); err == nil {
		t.Fatal("expected error after stop")
	}
}

// TestWarmRecovery pins dead-shard revival: the rebuilt shard comes back
// with a prefix cache re-warmed from the survivors' hottest prefixes, and
// rejoins the serving set.
func TestWarmRecovery(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cfg := failoverConfig(tk, 2, 1)
	cfg.Caches = NewShardCaches(2, prefixcache.Config{})
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	serveSome := func(n int, seedBase int64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Serve(context.Background(), Request{
				Prompt: gen.Pool()[i%len(gen.Pool())].Prompt, MaxNew: 32, Seed: seedBase + int64(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	serveSome(8, 100)

	cl.CrashShard(0, time.Second)
	if got := cl.Scaler().ServingShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("serving shards after crash = %v, want [1]", got)
	}
	serveSome(4, 200) // survivors keep serving (and keep the cache warm)

	if err := cl.ReviveShard(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := cl.Scaler().ServingShards(); len(got) != 2 {
		t.Fatalf("serving shards after revival = %v, want both", got)
	}
	if cfg.Caches[0].ResidentBytes() == 0 {
		t.Fatal("revived shard's cache was not re-warmed")
	}
	revived := cl.shards[0].server()
	if revived.Crashed() {
		t.Fatal("revived shard still marked crashed")
	}
	serveSome(8, 300)
	st := cl.Stats()
	if st.Shards[0].Served == 0 {
		t.Fatal("revived shard served nothing")
	}
	if st.Errored != 0 || st.DuplicateDeliveries != 0 {
		t.Fatalf("errored=%d dups=%d after recovery, want 0/0", st.Errored, st.DuplicateDeliveries)
	}
}

// TestReviveKeepsHottestPrefix pins the warm handoff's import order. A
// survivor offers more prefixes than the revived cache's budget holds;
// because Import is an LRU insert, the handoff must import coldest first
// so the overflow evicts cold prefixes and the hottest one stays
// resident.
func TestReviveKeepsHottestPrefix(t *testing.T) {
	target, e, tk, _ := clusterSetup(t)
	cfg := clusterConfig(tk, 2, 1)
	// 16-token single-node prompts cost 448 modelled bytes each (240 for
	// the node, 208 for its prompt boundary), so shard 0's revived cache
	// holds about 5 of the 41 its survivor offers.
	cfg.Caches = []*prefixcache.Cache{
		prefixcache.New(prefixcache.Config{BudgetBytes: 2400}),
		prefixcache.New(prefixcache.Config{}),
	}
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	prefix := func(first int) []int {
		p := make([]int, 16)
		for i := range p {
			p[i] = first + i
		}
		return p
	}
	lookup := func(c *prefixcache.Cache, p []int) {
		n, _ := c.Lookup(p)
		n.Release()
	}
	src := cfg.Caches[1]
	hot := prefix(1000)
	src.Insert(hot, len(hot))
	for i := 0; i < 50; i++ {
		lookup(src, hot)
	}
	for i := 0; i < 40; i++ {
		cold := prefix(2000 + 100*i)
		src.Insert(cold, len(cold))
		lookup(src, cold)
	}

	cl.CrashShard(0, time.Second)
	if err := cl.ReviveShard(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	dst := cfg.Caches[0]
	if n := dst.Len(); n == 0 || n >= 41 {
		t.Fatalf("revived cache holds %d prefixes, want the budget to drop some of 41", n)
	}
	if got := dst.MatchLen(hot); got != len(hot) {
		t.Fatalf("hottest prefix matches %d of %d tokens after revival, want all", got, len(hot))
	}
}
