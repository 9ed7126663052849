// Command tlttrain runs a full reasoning-RL training session under one of
// the supported systems and reports per-step timing and learning metrics.
//
//	tlttrain -system tlt -model qwen7b -nodes 1 -steps 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fastrl/internal/core"
	"fastrl/internal/gpu"
)

func main() {
	var (
		system  = flag.String("system", "tlt", "tlt | tlt-base | verl | open-r1")
		modelF  = flag.String("model", "qwen7b", "qwen7b | deepseek7b | qwen32b | llama70b")
		gpuF    = flag.String("gpu", "H100", "GPU type (see gpu catalogue)")
		nodes   = flag.Int("nodes", 1, "nodes (8 GPUs each)")
		tp      = flag.Int("tp", 0, "tensor-parallel degree per rollout worker (0 = the model's degree: 2 for 7B, 4 for 32B, 8 for 70B)")
		steps   = flag.Int("steps", 5, "RL steps to run")
		prompts = flag.Int("prompts", 16, "prompts per step")
		group   = flag.Int("group", 8, "responses per prompt (GRPO group)")
		maxNew  = flag.Int("maxnew", 384, "max response tokens")
		seed    = flag.Int64("seed", 1, "random seed")
		noPrior = flag.Bool("nopriors", false, "disable synthetic length priors (learning-dynamics mode)")
	)
	flag.Parse()

	kind, err := parseKind(*system)
	check(err)
	arch, tpDeg, err := parseModel(*modelF, *tp)
	check(err)
	spec, err := gpu.ByName(*gpuF)
	check(err)

	cfg := core.DefaultConfig()
	cfg.Kind = kind
	cfg.Arch = arch
	cfg.Cluster = core.DefaultCluster(spec, *nodes, tpDeg)
	cfg.RL.PromptsPerStep = *prompts
	cfg.RL.GroupSize = *group
	cfg.MaxNew = *maxNew
	cfg.Seed = *seed
	cfg.DisableLengthPrior = *noPrior

	sys, err := core.New(cfg)
	check(err)
	if err := sys.CheckMemory(); err != nil {
		check(err)
	}
	if kind == core.TLT {
		fmt.Println("warming up adaptive drafter...")
		sys.WarmUpDrafter(40, 3)
	}

	fmt.Printf("%s | %s on %d x %s node(s), TP=%d, %d workers\n",
		kind, arch.Name, *nodes, spec.Name, tpDeg, cfg.Cluster.Workers())
	fmt.Printf("%-5s %-12s %-12s %-10s %-10s %-8s %-8s %-8s %-8s\n",
		"step", "step-time", "rollout", "tput", "reward", "acc", "accept", "spot", "maxlen")
	var totalTokens int
	var totalTime time.Duration
	for i := 0; i < *steps; i++ {
		st, err := sys.Step()
		check(err)
		totalTokens += st.Tokens
		totalTime += st.StepTime
		fmt.Printf("%-5d %-12v %-12v %-10.0f %-10.3f %-8.3f %-8.2f %-8d %-8d\n",
			st.Step, st.StepTime.Round(time.Millisecond), st.Rollout.Round(time.Millisecond),
			st.Throughput, st.Summary.MeanReward, st.Summary.Accuracy,
			st.AcceptLen, st.SpotBatches, st.Summary.MaxLen)
	}
	fmt.Printf("\nmean throughput: %.0f tokens/s over %d steps (%v virtual)\n",
		float64(totalTokens)/totalTime.Seconds(), *steps, totalTime.Round(time.Millisecond))
}

func parseKind(s string) (core.Kind, error) {
	switch strings.ToLower(s) {
	case "tlt":
		return core.TLT, nil
	case "tlt-base", "tltbase":
		return core.TLTBase, nil
	case "verl":
		return core.VeRL, nil
	case "open-r1", "openr1":
		return core.OpenR1, nil
	}
	return 0, fmt.Errorf("unknown system %q", s)
}

// parseModel returns the named model and the tensor-parallel degree to
// run it at: tp when it is set, else the model's own degree.
func parseModel(s string, tp int) (gpu.Arch, int, error) {
	if tp < 0 {
		return gpu.Arch{}, 0, fmt.Errorf("negative tensor-parallel degree %d", tp)
	}
	var arch gpu.Arch
	var def int
	switch strings.ToLower(s) {
	case "qwen7b":
		arch, def = gpu.Qwen7B, 2
	case "deepseek7b":
		arch, def = gpu.DeepSeek7B, 2
	case "qwen32b":
		arch, def = gpu.Qwen32B, 4
	case "llama70b":
		arch, def = gpu.Llama70B, 8
	default:
		return gpu.Arch{}, 0, fmt.Errorf("unknown model %q", s)
	}
	if tp == 0 {
		tp = def
	}
	return arch, tp, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlttrain: %v\n", err)
		os.Exit(1)
	}
}
