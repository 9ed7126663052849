package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/model"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/specdec"
	"fastrl/internal/workload"
)

// PerfEntry is one hot-path measurement in a BENCH_<date>.json snapshot.
type PerfEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfSnapshot micro-benchmarks the speculation hot path with
// testing.Benchmark so cmd/tltbench -json can record the repository's
// perf trajectory (ns/op and allocs/op) in-tree alongside the per-figure
// timings. specdec/round-tree-batched keeps its name, though the round
// verifies lazily, so its baseline pin keeps comparing; the steady-state
// entries must stay at 0 allocs/op.
func PerfSnapshot(quick bool) []PerfEntry {
	b := newBench(gpu.Qwen7B, 7, quick)
	prompt := b.gen.SampleSeeded(1, 0x99)[0].Prompt
	p := specdec.Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}

	mk := func(name string, fn func(n int)) PerfEntry {
		r := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			tb.ResetTimer()
			fn(tb.N)
		})
		return PerfEntry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}

	var entries []PerfEntry
	{
		eng := &specdec.Engine{Target: b.target, Temp: 0.9, EosID: -1}
		rng := rand.New(rand.NewSource(1))
		entries = append(entries, mk("specdec/round-tree-batched", func(n int) {
			for i := 0; i < n; i++ {
				eng.Step(b.eagle, prompt, len(prompt), p, rng)
			}
		}))
	}
	{
		eng := &specdec.Engine{Target: b.target, Temp: 0.9, EosID: -1}
		rng := rand.New(rand.NewSource(1))
		entries = append(entries, mk("specdec/vanilla-step", func(n int) {
			for i := 0; i < n; i++ {
				eng.VanillaStep(prompt, len(prompt), rng)
			}
		}))
	}
	{
		const batch = 32
		vocab := b.target.Config().Vocab
		sc := model.NewScratch()
		ctxs := make([]model.Context, batch)
		rows := make([][]float32, batch)
		arena := make([]float32, batch*vocab)
		for i := range ctxs {
			ctxs[i] = model.Context{Tokens: prompt, PromptLen: len(prompt)}
			rows[i] = arena[i*vocab : (i+1)*vocab]
		}
		entries = append(entries, mk("model/probs-batch-32", func(n int) {
			for i := 0; i < n; i++ {
				b.target.ProbsBatch(ctxs, nil, 0.9, rows, sc)
			}
		}))
	}
	{
		// Multi-sequence speculation round: 8 sequences drafted and
		// verified in one StepBatch call — the continuous-batching
		// analogue of specdec/round-tree-batched.
		const nSeq = 8
		eng := &specdec.Engine{Target: b.target, Temp: 0.9}
		rng := rand.New(rand.NewSource(1))
		seqs := make([]specdec.Seq, nSeq)
		rngs := make([]*rand.Rand, nSeq)
		out := make([]specdec.Result, nSeq)
		for i := range seqs {
			seqs[i] = specdec.Seq{Tokens: prompt, PromptLen: len(prompt), EosID: -1}
			rngs[i] = rng
		}
		entries = append(entries, mk("specdec/step-batch-8", func(n int) {
			for i := 0; i < n; i++ {
				eng.StepBatch(b.eagle, seqs, p, rngs, out)
			}
		}))
	}
	// Scheduler iteration at three co-batching widths: inflight requests
	// advanced one SD round by the iteration-level scheduler (admission
	// bookkeeping, bias staging, batched round, cost model) — the serving
	// replica's steady-state hot path. The width sweep pins the bitmap
	// slot table's scaling claim: per-request step cost must stay flat
	// from batch-step-8 to batch-step-64 (the wide entries exercise
	// multi-word occupancy bitmaps).
	for _, nReq := range []int{8, 16, 64} {
		cfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		cfg.SDThreshold = 0
		cfg.Strategies = []specdec.Params{p}
		cfg.MAB.Thresholds = []int{1}
		batch, err := sched.New(cfg, b.target, b.eagle)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(2))
		reqs := make([]*sched.Request, nReq)
		for i := range reqs {
			reqs[i] = sched.NewRequest(i, prompt, 1<<20,
				workload.LengthPrior{TargetLen: 1 << 20, Sharpness: 25}, -1, -1)
			batch.Admit(reqs[i])
		}
		batch.Step(rng) // prefill + first round outside the timer
		// Rewind every sequence to its post-warm-up length before each op:
		// without this the workload drifts (tokens and KV grow every
		// iteration) and ns_per_op would depend on how many iterations
		// testing.Benchmark chose to run.
		warmLen := make([]int, len(reqs))
		for i, r := range reqs {
			warmLen[i] = len(r.Tokens)
		}
		rewind := func() {
			for j, r := range reqs {
				r.Tokens = r.Tokens[:warmLen[j]]
				r.AcceptLens = r.AcceptLens[:0]
			}
		}
		// Scratch high-water marks ratchet up over the first rounds as
		// draft-tree shapes vary; warm past the ratchet so allocs/op
		// records true steady state.
		for i := 0; i < 50; i++ {
			rewind()
			batch.Step(rng)
		}
		entries = append(entries, mk(fmt.Sprintf("sched/batch-step-%d", nReq), func(n int) {
			for i := 0; i < n; i++ {
				rewind()
				batch.Step(rng)
			}
		}))
	}
	{
		// Streamed serving round trip: one request through the streaming
		// request path (enqueue, continuous-batching replica, per-step
		// event publication, drain to the terminal Usage event). Setup is
		// per-request so allocs/op is small but nonzero; the per-event
		// emission inside it is pinned at 0 allocs separately
		// (serving's TestStreamEmissionZeroAllocs).
		cfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		cfg.SDThreshold = 0
		cfg.Strategies = []specdec.Params{p}
		cfg.MAB.Thresholds = []int{1}
		srv, err := serving.New(serving.Config{Engine: cfg, Replicas: 1, MaxBatch: 8}, b.target, b.eagle)
		if err != nil {
			panic(err)
		}
		entries = append(entries, mk("serving/stream-serve", func(n int) {
			for i := 0; i < n; i++ {
				st, err := srv.Stream(context.Background(), serving.Request{
					Prompt: prompt, MaxNew: 32, Seed: int64(i),
				})
				if err != nil {
					panic(err)
				}
				for {
					if _, err := st.Recv(); err == io.EOF {
						break
					} else if err != nil {
						panic(err)
					}
				}
			}
		}))
		srv.Stop()
	}
	{
		// Prefix-cache lookup: the routing/prefill hot path, pinned at 0
		// allocs/op like the other steady-state entries.
		cache := prefixcache.New(prefixcache.Config{})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 32; i++ {
			seq := append(append([]int(nil), prompt...), rng.Intn(64), rng.Intn(64))
			cache.Insert(seq, len(prompt), nil)
		}
		entries = append(entries, mk("prefixcache/lookup", func(n int) {
			for i := 0; i < n; i++ {
				node, _ := cache.Lookup(prompt)
				node.Release()
			}
		}))
	}
	{
		// Exemplar-linked histogram record: the observability write every
		// served request (and every streamed chunk) crosses — log-bucket
		// index plus bounded exemplar-set update, pinned at 0 allocs/op
		// like the other steady-state entries.
		h := metrics.NewHistogram()
		rng := rand.New(rand.NewSource(9))
		vals := make([]int64, 1024)
		for i := range vals {
			vals[i] = 1 + int64(rng.Intn(1<<30))
		}
		entries = append(entries, mk("metrics/histogram-record", func(n int) {
			for i := 0; i < n; i++ {
				v := vals[i&1023]
				h.Record(v, v)
			}
		}))
	}
	return entries
}
