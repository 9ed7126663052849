// Quickstart: build a TLT reasoning-RL system on one simulated H100 node,
// warm up the adaptive drafter, and run a few GRPO steps.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/sched"
	"fastrl/internal/workload"
)

func main() {
	// DefaultConfig: TLT on 1 x 8xH100 node, Qwen-7B-like target, GRPO.
	cfg := core.DefaultConfig()
	cfg.RL.PromptsPerStep = 8
	cfg.RL.GroupSize = 4
	cfg.MaxNew = 256

	sys, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The adaptive drafter starts from a brief warm-up on base-model
	// rollouts (the paper's OpenThoughts warm-up); spot training keeps it
	// aligned from then on, for free, on GPUs idled by the long tail.
	fmt.Println("warming up the adaptive drafter...")
	sys.WarmUpDrafter(40, 3)

	fmt.Println("running 5 GRPO steps with TLT (adaptive speculative decoding)...")
	for i := 0; i < 5; i++ {
		st, err := sys.Step()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("step %d: %v total (rollout %v) | %6.0f tok/s | reward %.3f | accept len %.2f | %d spot batches\n",
			st.Step, st.StepTime.Round(time.Millisecond), st.Rollout.Round(time.Millisecond),
			st.Throughput, st.Summary.MeanReward, st.AcceptLen, st.SpotBatches)
	}
	fmt.Println("\nthe drafter was trained opportunistically on idle GPUs during the")
	fmt.Println("long-tail phase of each rollout - no extra cost to the RL workflow.")
	fmt.Printf("final drafter version: %d (each version is one spot-training batch set)\n", sys.Eagle.Version)

	// Inspect the trained policy with the batched scoring API: one
	// ProbsBatch pass over several prompt contexts (engine-owned scratch,
	// no per-row allocation churn) emits rows bit-identical to sequential
	// Probs calls — the same entry the speculation engine verifies trees
	// through.
	tasks := sys.Tasks.SampleSeeded(4, 1)
	ctxs := make([]model.Context, len(tasks))
	rows := make([][]float32, len(tasks))
	vocab := sys.Tk.VocabSize()
	arena := make([]float32, len(tasks)*vocab)
	for i, task := range tasks {
		ctxs[i] = model.Context{Tokens: task.Prompt, PromptLen: len(task.Prompt)}
		rows[i] = arena[i*vocab : (i+1)*vocab]
	}
	sys.Target.ProbsBatch(ctxs, nil, 0.9, rows, model.NewScratch())
	fmt.Println("\nbatched next-token scoring at each prompt end (model.ProbsBatch):")
	for i, row := range rows {
		top := model.TopKInto(row, 1, nil)
		fmt.Printf("  prompt %d: argmax token %q (p=%.3f)\n",
			i, sys.Tk.Token(top[0]), row[top[0]])
	}

	// Continuous batching, hands on: the iteration-level scheduler is the
	// lifecycle under both the trainer and the serving replicas. Admit
	// requests as they "arrive", advance the whole batch one step at a
	// time, and retire completions at step boundaries — request 3 joins
	// while 0-2 are mid-decode, and nobody waits for a stranger to finish.
	fmt.Println("\ndriving the iteration-level scheduler directly (sched.Batch):")
	scfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	scfg.SDThreshold = 0 // always speculate: the trained drafter is hot
	batch, err := sched.New(scfg, sys.Target, sys.Eagle)
	if err != nil {
		log.Fatal(err)
	}
	defer batch.Close() // a batch you drop, you Close: it stops the SD pipeline workers
	arrivals := sys.Tasks.SampleSeeded(4, 7)
	next, stepRng := 0, rand.New(rand.NewSource(11))
	for step := 0; batch.ActiveCount() > 0 || next < len(arrivals); step++ {
		if next < len(arrivals) && step%2 == 0 { // a new request every other step
			r := sched.NewRequest(next, arrivals[next].Prompt, 96,
				workload.LengthPrior{TargetLen: 64, Sharpness: 25},
				sys.Tk.Answer(), sys.Tk.Eos())
			r.RNG = rand.New(rand.NewSource(int64(next))) // private stream: batch-mates cannot perturb it
			batch.Admit(r)
			next++
		}
		batch.Step(stepRng)
		for _, r := range batch.Retire() {
			fmt.Printf("  request %d: %3d tokens in %v of virtual decode (accept len %.2f), retired at step %d\n",
				r.ID, r.Generated(), r.DecodeTime().Round(time.Microsecond), r.MeanAcceptLen(), step)
		}
	}

	fmt.Println("\nnext: `go run ./cmd/tltbench -exp all -quick` replays the paper figures;")
	fmt.Println("`-exp chaos` kills and revives shards mid-trace to show deterministic,")
	fmt.Println("exactly-once failover; ./examples/deploy_drafter serves the trained")
	fmt.Println("drafter through the sharded cluster, chaos drill included.")
}
