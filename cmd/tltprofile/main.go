// Command tltprofile emits a rollout running-request profile (the paper's
// Fig. 14 case study) as CSV on stdout: one row per engine iteration with
// virtual time, running-request count, decode mode, and strategy.
//
//	tltprofile -requests 128 -model qwen32b -threshold 32 > profile.csv
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/profileio"
	"fastrl/internal/sched"
	"fastrl/internal/tokenizer"
	"fastrl/internal/workload"
)

func main() {
	var (
		requests  = flag.Int("requests", 128, "concurrent rollout requests")
		modelF    = flag.String("model", "qwen32b", "qwen7b | qwen32b | llama70b")
		gpuF      = flag.String("gpu", "H100", "GPU type")
		tp        = flag.Int("tp", 4, "tensor parallel degree")
		threshold = flag.Int("threshold", 32, "elastic SD threshold (-1 disables SD)")
		maxNew    = flag.Int("maxnew", 256, "max response tokens")
		seed      = flag.Int64("seed", 14, "random seed")
		chart     = flag.Bool("chart", false, "render an ASCII running-request chart to stderr")
	)
	flag.Parse()

	arch := gpu.Qwen32B
	switch strings.ToLower(*modelF) {
	case "qwen7b":
		arch = gpu.Qwen7B
	case "qwen32b":
	case "llama70b":
		arch = gpu.Llama70B
	default:
		fmt.Fprintf(os.Stderr, "tltprofile: unknown model %q\n", *modelF)
		os.Exit(1)
	}
	spec, err := gpu.ByName(*gpuF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tltprofile:", err)
		os.Exit(1)
	}

	tk := tokenizer.New()
	mcfg := model.DefaultConfig(tk.VocabSize(), arch)
	mcfg.Buckets = 1 << 12
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	target := model.New(mcfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	gen := workload.NewTaskGen(tk, 64, *seed)

	// Warm a drafter when SD is enabled.
	var dr draft.Drafter
	if *threshold >= 0 {
		rng := rand.New(rand.NewSource(*seed ^ 0x5a))
		e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), arch))
		var examples []*draft.Example
		for _, task := range gen.Sample(60) {
			seq := model.Generate(target, task.Prompt, nil, 0.9, 64, tk.Eos(), rng)
			examples = append(examples, draft.HarvestExamples(target,
				model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, e.FusedHiddens(), true)...)
		}
		for ep := 0; ep < 3; ep++ {
			e.Train(examples, nil, rng)
		}
		dr = e
	}

	dev := gpu.NewDevice(spec, *tp)
	cfg := sched.DefaultConfig(dev)
	cfg.SDThreshold = *threshold
	eng, err := sched.New(cfg, target, dr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tltprofile:", err)
		os.Exit(1)
	}

	rng := rand.New(rand.NewSource(*seed))
	sampler := workload.DefaultLengthSampler(*maxNew)
	var reqs []*sched.Request
	for i, task := range gen.Sample(*requests) {
		prior := workload.PriorFor(task, sampler, rng)
		reqs = append(reqs, sched.NewRequest(i, task.Prompt, *maxNew, prior, tk.Answer(), tk.Eos()))
	}
	stats := eng.Run(reqs, rng, 0)

	if err := profileio.WriteCSV(os.Stdout, stats.Profile); err != nil {
		fmt.Fprintln(os.Stderr, "tltprofile:", err)
		os.Exit(1)
	}
	if *chart {
		fmt.Fprint(os.Stderr, profileio.RenderRunning(stats.Profile, 72, 10))
	}
	fmt.Fprintf(os.Stderr, "elapsed %.3fs, %d response tokens (%.0f tok/s), accept length %.2f, SD steps %d/%d\n",
		stats.Elapsed.Seconds(), stats.ResponseTokens, stats.Throughput(),
		stats.MeanAcceptLen(), stats.SDSteps, stats.SDSteps+stats.VanillaSteps)
}
