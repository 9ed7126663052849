// deploy_drafter: the "free byproduct" workflow (paper §7). RL training
// under TLT yields a drafter aligned with the final policy at no extra
// cost. This example trains briefly, checkpoints the drafter with the
// spot trainer's selective-async checkpointer, reloads it into a fresh
// process, and serves the frozen policy through the sharded cluster:
// per-shard radix prefix caches skip re-prefilling shared prompt
// prefixes, and cache-aware routing sends each request to the shard
// whose cache already covers it.
//
//	go run ./examples/deploy_drafter
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"fastrl/internal/cluster"
	"fastrl/internal/core"
	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/spot"
	"fastrl/internal/trace"
	"fastrl/internal/workload"
)

func main() {
	// ---- Phase 1: RL training with TLT (drafter adapts on idle GPUs).
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.RL.PromptsPerStep = 8
	cfg.RL.GroupSize = 4
	cfg.MaxNew = 192
	sys, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.WarmUpDrafter(40, 3)
	fmt.Println("phase 1: RL training (drafter adapts opportunistically)...")
	for i := 0; i < 4; i++ {
		if _, err := sys.Step(); err != nil {
			log.Fatal(err)
		}
	}

	// ---- Phase 2: checkpoint the byproduct drafter.
	dir, err := os.MkdirTemp("", "tlt-drafter")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ck := spot.NewCheckpointer(dir, spot.SelectiveAsync)
	d := gpu.DraftArch(cfg.Arch)
	trainable := int64(12 * d.HiddenDim * d.HiddenDim * 2)
	frozen := int64(2 * d.VocabSize * d.HiddenDim * 2)
	cs, err := ck.Save(sys.Eagle, trainable, frozen)
	if err != nil {
		log.Fatal(err)
	}
	if err := ck.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: drafter checkpointed to %s (%d KB trainable state, %v modelled blocking)\n",
		cs.Path, cs.SavedBytes/1024, cs.Blocking)

	// ---- Phase 3: deployment. A fresh drafter instance loads the
	// checkpoint and serves the (now frozen) policy through a sharded
	// cluster: every shard gets its own radix prefix cache, and the
	// cache-aware router sends each request to the shard whose cache
	// already covers the longest prefix of its prompt.
	served := draft.NewEagle(draft.EagleDefault(sys.Tk.VocabSize(), cfg.Arch))
	if _, err := spot.Load(cs.Path, served); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 3: serving through a cache-aware sharded cluster...")

	const shards = 2
	caches := cluster.NewShardCaches(shards, prefixcache.Config{})
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 2))
	ecfg.SDThreshold = 0 // SD always on: the deployed drafter earns its keep
	// Request-lifecycle tracing for the whole deployment: every request's
	// queue/prefill/SD-round spans land in per-request arenas (zero
	// steady-state allocations), stamped with the serving shard, and the
	// demo exports the lot as a Chrome trace at the end.
	tracer := trace.New(trace.Config{SpanSlots: 512, MaxRequests: 1 << 12})
	cl, err := cluster.New(cluster.Config{
		Tracer: tracer,
		Shards: shards,
		Shard: serving.Config{
			Engine: ecfg, Replicas: 1,
			// Each replica is a continuous-batching step-loop: up to 8
			// requests decode together, joining and leaving the batch at
			// iteration boundaries — a burst of submissions below shares
			// each verification pass instead of queueing head-of-line.
			MaxBatch: 8,
			AnswerID: sys.Tk.Answer(), EosID: sys.Tk.Eos(),
		},
		Policy: cluster.NewCacheAware(caches),
		Caches: caches,
		// A tight per-shard backlog makes admission control a live part of
		// the demo: shed requests come back as typed *ErrShedded with a
		// retry-after hint, and the submit helper below backs off and
		// retries instead of failing.
		Admission: cluster.AdmissionConfig{MaxPending: 6},
		// Failover keeps streams alive through the phase-4 shard kill:
		// requests stranded on the dead shard replay on the survivor,
		// bit-identical and exactly-once.
		Failover: cluster.FailoverConfig{Enabled: true},
	}, sys.Target, served)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Stop()

	// Two passes over the same prompt set: the first pays full prefill
	// and seeds the caches, the second is routed back to the warm shards
	// and skips the prompt positions already resident. Every request goes
	// through the streaming path — the cluster's primary request surface —
	// so tokens arrive chunk by chunk as speculation rounds land, and
	// time-to-first-token is observable per request, not just end-to-end
	// latency.
	tasks := sys.Tasks.SampleSeeded(8, 99)
	for pass := 1; pass <= 2; pass++ {
		streams := make([]*cluster.Stream, 0, len(tasks))
		for i, task := range tasks {
			st, err := submitWithBackoff(cl, cluster.Request{
				Prompt: task.Prompt,
				MaxNew: 192,
				Prior:  workload.LengthPrior{TargetLen: 128, Sharpness: 25},
				Seed:   int64(pass*100 + i),
			})
			if err != nil {
				log.Fatal(err)
			}
			streams = append(streams, st)
		}
		var accept float64
		var n, chunks int
		for _, st := range streams {
			for {
				ev, err := st.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					log.Fatal(err)
				}
				switch ev.Kind {
				case serving.EventTokens:
					// A consumer that keeps up sees one chunk per speculation
					// round's accepted run; this one drains lazily, so chunks
					// published since the last pull coalesce.
					chunks++
				case serving.EventUsage:
					if ev.Usage.Err != nil {
						log.Fatal(ev.Usage.Err)
					}
					if ev.Usage.AcceptLen > 0 {
						accept += ev.Usage.AcceptLen
						n++
					}
				}
			}
		}
		st := cl.Stats()
		fmt.Printf("  pass %d: served %d in %d chunks | accept len %.2f | p50 %v | ttft p50 %v | itl p50 %v | prefill positions saved so far %d\n",
			pass, st.Served, chunks, accept/float64(max(n, 1)), st.P50.Round(time.Microsecond),
			st.TTFTP50.Round(time.Microsecond), st.ITLP50.Round(time.Microsecond), st.CacheSavedPositions)
	}
	// One consistent registry snapshot replaces per-probe stat prints:
	// per-shard admission counters, outcome counters, cache gauges, and
	// the latency histograms, all read at a single point.
	fmt.Println("  unified registry snapshot:")
	for _, line := range strings.Split(strings.TrimRight(cl.Registry().Snapshot().String(), "\n"), "\n") {
		fmt.Println("    " + line)
	}
	if retries := sheddedRetries.Load(); retries > 0 {
		fmt.Printf("  admission shed %d submissions; all admitted after retry-after backoff\n", retries)
	}

	// ---- Phase 4: chaos drill. Kill shard 0 while a wave of streams is
	// in flight: failover resubmits the stranded requests to shard 1 and
	// replays them from their private RNG seeds, so every stream still
	// completes exactly once. Then revive shard 0 warm — prefix cache
	// re-seeded from the survivor's hottest prefixes — and confirm it
	// rejoins the serving set.
	fmt.Println("phase 4: chaos drill — killing shard 0 mid-flight...")
	drill := sys.Tasks.SampleSeeded(8, 123)
	streams := make([]*cluster.Stream, 0, len(drill))
	for i, task := range drill {
		st, err := submitWithBackoff(cl, cluster.Request{
			Prompt: task.Prompt,
			MaxNew: 192,
			Prior:  workload.LengthPrior{TargetLen: 128, Sharpness: 25},
			Seed:   int64(300 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		streams = append(streams, st)
	}
	cl.CrashShard(0, 0)
	for _, st := range streams {
		if _, err := st.Wait(); err != nil {
			log.Fatal(err)
		}
	}
	st := cl.Stats()
	fmt.Printf("  all %d streams completed | failovers %d | duplicate deliveries %d | postmortem captures %d\n",
		len(streams), st.Failovers, st.DuplicateDeliveries, len(cl.Postmortems()))
	if err := cl.ReviveShard(0, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  shard 0 revived warm: serving shards %v, cache resident %d KB\n",
		cl.Scaler().ServingShards(), caches[0].ResidentBytes()/1024)

	// Export the full demo — both passes, the shard kill, the failover
	// replays, and the warm revival — as a Chrome trace_event file:
	// load it in chrome://tracing or Perfetto for a per-shard Gantt
	// (pid = shard, tid = request), or feed it to
	// `go run ./examples/trace_analysis -trace <file>` for an ASCII one.
	export := tracer.Export()
	chrome, err := export.Chrome()
	if err != nil {
		log.Fatal(err)
	}
	tracePath := "deploy_drafter_trace.json"
	if err := os.WriteFile(tracePath, chrome, 0o644); err != nil {
		log.Fatal(err)
	}
	sum, err := export.Validate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wrote %s: %d requests, %d spans across the kill and revival\n",
		tracePath, sum.Requests, sum.Spans)

	fmt.Println("the drafter cost nothing to train, repeat prompts skip their prefill")
	fmt.Println("via the shared radix prefix cache, and a shard kill is absorbed by")
	fmt.Println("deterministic failover (paper's free byproduct, cached and durable)")
}

// sheddedRetries counts submissions that were shed and retried.
var sheddedRetries atomic.Int64

// submitWithBackoff submits a streaming request, honouring admission
// control's typed shed errors: a *cluster.ErrShedded carries the shard's
// retry-after estimate, which seeds a bounded exponential backoff (hint
// or current backoff, whichever is larger, capped at 50ms, at most 6
// retries). Anything else — including a nil error — returns immediately.
func submitWithBackoff(cl *cluster.Cluster, req cluster.Request) (*cluster.Stream, error) {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		st, err := cl.Stream(context.Background(), req)
		var shed *cluster.ErrShedded
		if err == nil || !errors.As(err, &shed) || attempt >= 6 {
			return st, err
		}
		sheddedRetries.Add(1)
		wait := shed.RetryAfter
		if wait < backoff {
			wait = backoff
		}
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		time.Sleep(wait)
		backoff *= 2
	}
}
