package experiments

import (
	"math/rand"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/reward"
	"fastrl/internal/sched"
	"fastrl/internal/specdec"
	"fastrl/internal/tokenizer"
	"fastrl/internal/workload"
)

// bench is a ready-made target + trained drafter pair for SD experiments.
type bench struct {
	tk     *tokenizer.Tokenizer
	target *model.LM
	eagle  *draft.Eagle
	gen    *workload.TaskGen
	seed   int64
	corpus []*draft.Example
}

// newBench builds a target model for arch and warm-trains an Eagle drafter
// on its rollouts.
func newBench(arch gpu.Arch, seed int64, quick bool) *bench {
	tk := tokenizer.New()
	mcfg := model.DefaultConfig(tk.VocabSize(), arch)
	mcfg.Buckets = 1 << 12
	mcfg.Seed ^= seed
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	target := model.New(mcfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	gen := workload.NewTaskGen(tk, 64, seed)

	prompts, epochs := 120, 4
	if quick {
		prompts, epochs = 40, 2
	}
	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), arch))
	rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
	var corpus []*draft.Example
	for _, task := range gen.Sample(prompts) {
		seq := model.Generate(target, task.Prompt, nil, 0.9, 64, tk.Eos(), rng)
		corpus = append(corpus, draft.HarvestExamples(target,
			model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, true)...)
	}
	for ep := 0; ep < epochs; ep++ {
		e.Train(corpus, nil, rng)
	}
	return &bench{tk: tk, target: target, eagle: e, gen: gen, seed: seed, corpus: corpus}
}

// steadyState measures steady-state generation throughput at a fixed batch
// size: requests that cannot finish within iters engine iterations.
// threshold < 0 disables SD; 0 forces SD. A nil drafter with threshold >= 0
// uses the bench's Eagle drafter.
func (b *bench) steadyState(dev *gpu.Device, dr draft.Drafter, batch, iters, threshold int, strategies []specdec.Params, temp float64) (tokensPerSec, acceptLen float64) {
	cfg := sched.DefaultConfig(dev)
	cfg.Temp = temp
	cfg.SDThreshold = threshold
	if strategies != nil {
		cfg.Strategies = strategies
		cfg.MAB.Thresholds = []int{1}
	}
	if threshold >= 0 && dr == nil {
		dr = b.eagle
	}
	if threshold < 0 {
		dr = nil
	}
	eng, err := sched.New(cfg, b.target, dr)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(b.seed ^ 0x77))
	var reqs []*sched.Request
	for i, task := range b.gen.SampleSeeded(batch, b.seed^0x5151) {
		prior := workload.LengthPrior{TargetLen: 1 << 20, Sharpness: 25}
		reqs = append(reqs, sched.NewRequest(i, task.Prompt, 1<<20, prior, b.tk.Answer(), b.tk.Eos()))
	}
	stats := eng.Run(reqs, rng, iters)
	return stats.Throughput(), stats.MeanAcceptLen()
}

// freshExamples harvests evaluation examples from the bench target.
func (b *bench) freshExamples(n int, seed int64) []*draft.Example {
	rng := rand.New(rand.NewSource(seed))
	var out []*draft.Example
	for _, task := range b.gen.SampleSeeded(n, seed) {
		seq := model.Generate(b.target, task.Prompt, nil, 0.9, 64, b.tk.Eos(), rng)
		out = append(out, draft.HarvestExamples(b.target,
			model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, true)...)
	}
	return out
}

// newVerifier builds the rule-based verifier for a bench.
func newVerifier(b *bench) *reward.Verifier { return reward.NewVerifier(b.tk) }
