package draft

import (
	"math"

	"fastrl/internal/gpu"
	"fastrl/internal/model"
)

// SmallLM is the vanilla speculative-decoding drafter: a separate,
// smaller multi-layer LM from the "same family" as the target (e.g.
// Qwen2.5-0.5B for a Qwen2.5 target). Unlike the Eagle drafter it does
// not consume target hidden states, and its multi-layer architecture
// makes its drafting latency much higher than the single-layer drafter
// despite the small parameter count (sequential layer compute dominates).
type SmallLM struct {
	lm   *model.LM
	name string
}

// NewSmallLM builds a small-LM drafter. family should be the target's
// model config (for the vocab); arch the small model's architecture
// (e.g. gpu.Qwen05B).
func NewSmallLM(name string, vocab int, arch gpu.Arch, seed int64) *SmallLM {
	cfg := model.Config{
		Vocab:        vocab,
		Orders:       []int{1, 2},
		PromptOrders: []int{1},
		Buckets:      1 << 11,
		InitScale:    0.3,
		Seed:         seed,
		Arch:         arch,
	}
	return &SmallLM{lm: model.New(cfg, nil), name: name}
}

// Name implements Drafter.
func (s *SmallLM) Name() string { return s.name }

// Arch implements Drafter.
func (s *SmallLM) Arch() gpu.Arch { return s.lm.Arch() }

// LM exposes the underlying model.
func (s *SmallLM) LM() *model.LM { return s.lm }

// Probs implements Drafter. Hidden states are ignored: a vanilla small
// model has no access to target internals.
func (s *SmallLM) Probs(tokens []int, promptLen int, hidden *model.HiddenState, temp float64, dst []float32, sc *model.Scratch) {
	s.lm.ProbsScratch(model.Context{Tokens: tokens, PromptLen: promptLen}, nil, temp, dst, sc)
}

// Distill performs one KD pass aligning the small LM to the target on the
// example contexts: soft cross-entropy toward the target distribution
// when available (OSD-style), one-hot toward the sampled token otherwise
// (SFT-style). Returns the mean pre-update cross-entropy.
func (s *SmallLM) Distill(examples []*Example, lr float64, soft bool) float64 {
	if len(examples) == 0 {
		return 0
	}
	vocab := s.lm.Config().Vocab
	q := make([]float32, vocab)
	grad := make([]float32, vocab)
	logits := make([]float32, vocab)
	var featBuf [8]int
	var ceSum float64
	for _, ex := range examples {
		ctx := model.Context{Tokens: ex.Tokens, PromptLen: ex.PromptLen}
		feats := s.lm.Features(ctx, featBuf[:0])
		s.lm.Table().Accumulate(feats, logits)
		model.Softmax(logits, 1, q)
		ceSum += -math.Log(float64(q[ex.TargetTok]) + 1e-12)
		if soft && ex.Target != nil {
			for v := range grad {
				grad[v] = ex.Target[v] - q[v]
			}
		} else {
			for v := range grad {
				grad[v] = -q[v]
			}
			grad[ex.TargetTok] += 1
		}
		s.lm.Table().AddGrad(feats, grad, float32(lr))
	}
	return ceSum / float64(len(examples))
}
