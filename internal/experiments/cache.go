package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fastrl/internal/cluster"
	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/workload"
)

func init() {
	register("cache",
		"Shared radix prefix cache: templated-prompt replay, prefill savings and hit rate per routing policy, drafter warm-start",
		runCache)
}

// cacheArm is one routing policy's replay outcome.
type cacheArm struct {
	policy    string
	stats     cluster.Stats
	hitRate   float64 // weighted across shard caches
	savedFrac float64 // saved prefill positions / total prompt positions
	loadRatio float64 // max/mean served requests across shards (1.0 = even)
	nodes     int
	resident  int64
	armCaches []*prefixcache.Cache
	err       error
}

// runCache replays a templated-prompt arrival trace — a handful of long
// shared prefixes (system/few-shot templates) fanned out over many task
// suffixes — through a sharded cluster with per-shard prefix caches, once
// per routing policy. Requests are submitted strictly in arrival order, so
// routing, hit rates, and saved prefill positions are deterministic under
// fixed seeds (wall-clock latency percentiles are reported but, as with
// -exp cluster, carry scheduler noise). The figure is the paper's prefill
// amortisation argument: prefix-affinity hashing pins each template to
// one shard, whose cache then pays the template's prefill once, while
// round-robin pays it once per shard.
func runCache(opts Options) (*Result, error) {
	seed := seedOr(opts, 33)
	b := newBench(gpu.Qwen7B, seed, opts.Quick)

	shards := 4
	templates := 8
	templateLen := 24
	arrivalsWanted := 280
	maxNew := 24
	if opts.Quick {
		shards = 3
		templates = 6
		arrivalsWanted = 140
		maxNew = 16
	}

	// Templated prompt pool: prompt(task) = template[task % T] ++ task
	// suffix. Tasks sharing a template share a templateLen-token prefix,
	// the locality both affinity policies exploit.
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	tmpl := make([][]int, templates)
	for t := range tmpl {
		row := make([]int, templateLen)
		for i := range row {
			row[i] = rng.Intn(b.tk.VocabSize())
		}
		tmpl[t] = row
	}
	pool := b.gen.Pool()
	prompts := make([][]int, len(pool))
	for i, task := range pool {
		p := append([]int(nil), tmpl[i%templates]...)
		prompts[i] = append(p, task.Prompt...)
	}

	// Arrival times only order the sequential replay; the rate is chosen
	// so the configured duration yields ~arrivalsWanted arrivals.
	duration := 4 * time.Second
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   duration,
		RatePerSec: float64(arrivalsWanted) / duration.Seconds(),
		Tasks:      len(pool),
		Lengths:    workload.DefaultLengthSampler(maxNew),
		Seed:       seed ^ 0xcafe,
	})
	var promptPositions int64
	for _, a := range arrivals {
		promptPositions += int64(len(prompts[a.Task]))
	}

	policies := []cluster.Policy{cluster.NewRoundRobin(), cluster.NewPrefixAffinity(8)}
	arms := make([]cacheArm, len(policies))
	forEach(len(policies), func(i int) {
		arms[i] = runCacheArm(b, policies[i], prompts, arrivals, shards, maxNew, promptPositions)
	})

	res := &Result{}
	tbl := &metrics.Table{Header: []string{
		"policy", "served", "hit%", "saved prefill%", "load max/mean", "nodes", "resident KB", "p50 ms", "p95 ms",
	}}
	for _, arm := range arms {
		if arm.err != nil {
			return nil, arm.err
		}
		st := arm.stats
		tbl.AddRow(arm.policy,
			fmt.Sprintf("%d", st.Served),
			metrics.F(100*arm.hitRate, 1),
			metrics.F(100*arm.savedFrac, 1),
			metrics.F(arm.loadRatio, 2),
			fmt.Sprintf("%d", arm.nodes),
			metrics.F(float64(arm.resident)/1024, 1),
			metrics.F(float64(st.P50)/float64(time.Millisecond), 2),
			metrics.F(float64(st.P95)/float64(time.Millisecond), 2),
		)
		res.Metric(arm.policy+"/hit_rate", arm.hitRate)
		res.Metric(arm.policy+"/prefill_saved_frac", arm.savedFrac)
		res.Metric(arm.policy+"/saved_positions", float64(st.CacheSavedPositions))
		res.Metric(arm.policy+"/load_ratio", arm.loadRatio)
	}
	res.Tables = append(res.Tables, tbl)

	// Drafter warm-start: attach a fresh n-gram drafter to the
	// prefix-affinity arm's surviving caches (the
	// redeploy-over-surviving-state scenario). The replayed continuation
	// statistics make it hot before any traffic.
	ng := draft.NewNGram(b.tk.VocabSize(), 1, 3)
	var replayed int
	for _, arm := range arms {
		if arm.policy != "prefix-affinity" {
			continue
		}
		for _, c := range arm.armCaches {
			replayed += c.WarmStart(ng)
		}
	}
	res.Metric("warmstart/replayed_pairs", float64(replayed))
	res.Metric("warmstart/ngram_size", float64(ng.Size()))

	res.Notes = append(res.Notes,
		fmt.Sprintf("trace: %d arrivals, %d templates x %d-token shared prefixes over %d tasks, %d shards, sequential replay",
			len(arrivals), templates, templateLen, len(pool), shards),
		"saved prefill% = prompt positions skipped via per-shard radix caches / total prompt positions; routing and savings are seed-deterministic (latency percentiles carry scheduler noise)",
		"prefix-affinity hashes each prompt's leading 8 tokens (inside its template) to one shard, so a template's requests share that shard's cache; round-robin spreads every template over every shard and pays its prefill once per shard",
		fmt.Sprintf("warm-start: replaying the prefix-affinity arm's harvested continuation statistics seeded a fresh n-gram drafter with %d entries before any traffic", ng.Size()),
	)
	return res, nil
}

// runCacheArm replays the trace sequentially through a fresh cluster with
// per-shard caches under one policy.
func runCacheArm(b *bench, policy cluster.Policy,
	prompts [][]int, arrivals []workload.Arrival, shards, maxNew int, promptPositions int64) cacheArm {
	arm := cacheArm{policy: policy.Name()}
	caches := cluster.NewShardCaches(shards, prefixcache.Config{})
	arm.armCaches = caches
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = -1 // vanilla decode: the figure isolates prefill reuse
	clcfg := cluster.Config{
		Shards: shards,
		Shard: serving.Config{
			Engine: ecfg, Replicas: 1, QueueDepth: 64,
			AnswerID: b.tk.Answer(), EosID: b.tk.Eos(),
		},
		Policy: policy,
		Caches: caches,
	}
	cl, err := cluster.New(clcfg, b.target, nil)
	if err != nil {
		arm.err = err
		return arm
	}
	defer cl.Stop()

	for _, a := range arrivals {
		_, err := cl.Serve(context.Background(), cluster.Request{
			Prompt: prompts[a.Task],
			MaxNew: maxNew,
			Prior:  workload.LengthPrior{TargetLen: a.TargetLen, Sharpness: 25},
			Seed:   a.Seed,
		})
		if err != nil {
			arm.err = err
			return arm
		}
	}
	arm.stats = cl.Stats()
	var hits, lookups int64
	for _, c := range caches {
		st := c.Stats()
		hits += st.Hits
		lookups += st.Lookups
		arm.nodes += st.Nodes
		arm.resident += st.ResidentBytes
	}
	if lookups > 0 {
		arm.hitRate = float64(hits) / float64(lookups)
	}
	if promptPositions > 0 {
		arm.savedFrac = float64(arm.stats.CacheSavedPositions) / float64(promptPositions)
	}
	// Load-balance figure: max/mean served requests across shards. 1.0 is
	// perfectly even; the shard count is the worst case (everything on one
	// shard — the hotspot affinity routing tends toward).
	var maxServed, sumServed int
	for _, sh := range arm.stats.Shards {
		sumServed += sh.Served
		if sh.Served > maxServed {
			maxServed = sh.Served
		}
	}
	if sumServed > 0 {
		arm.loadRatio = float64(maxServed) * float64(len(arm.stats.Shards)) / float64(sumServed)
	}
	return arm
}
