// Package draft implements the draft models used for speculative decoding:
// an Eagle-style learned single-layer drafter (with HASS and Eagle-3
// training variants and OSD-style distillation), a vanilla small-LM
// drafter, and a retrieval-based model-free n-gram drafter.
package draft

import (
	"sync"

	"fastrl/internal/gpu"
	"fastrl/internal/model"
)

// scratchPool backs HarvestExamples' target scoring, so concurrent
// harvests stay allocation-free without per-caller scratch.
var scratchPool = sync.Pool{New: func() any { return model.NewScratch() }}

// Drafter produces a proposal distribution for the next token.
//
// tokens is the full sequence so far (prompt + generated + previously
// drafted tokens), promptLen the prompt prefix length, and hidden the
// target model's hidden sketch at the drafting root (the last verified
// position). Model-free drafters ignore hidden. dst receives the
// distribution and must have vocabulary length. sc holds the intermediate
// buffers (logits), so the drafting stage of a speculation round performs
// zero heap allocations; model-free drafters, which need no logits
// buffer, ignore it and accept nil.
type Drafter interface {
	Name() string
	// Arch returns the cost-model architecture of the drafter. A zero
	// Layers value marks a model-free drafter with no GPU forward cost.
	Arch() gpu.Arch
	Probs(tokens []int, promptLen int, hidden *model.HiddenState, temp float64, dst []float32, sc *model.Scratch)
}

// Observer is implemented by drafters that learn online from observed
// rollout tokens (the model-free n-gram drafter).
type Observer interface {
	Observe(tokens []int, promptLen int)
}

// Example is one drafter training sample harvested from the RL inference
// (prefill) stage: the context, the target's hidden sketch at the context
// end, and the target's next-token distribution and sampled next token.
type Example struct {
	// Tokens is the context prefix. Implementations treat it as read-only;
	// it may alias rollout response storage.
	Tokens    []int
	PromptLen int
	Hidden    *model.HiddenState
	// Target is the target model's full next-token distribution (used by
	// KD-style objectives). May be nil when only the sampled token was
	// recorded.
	Target []float32
	// TargetTok is the token the target model actually produced.
	TargetTok int
	// SeqLen is the total length of the response this example came from;
	// the DataBuffer uses it for long-sequence prioritisation.
	SeqLen int
}

// TrainStats summarises one training call.
type TrainStats struct {
	Examples int
	// ForwardPasses counts drafter forward passes performed, the unit of
	// the paper's "training cost" column in Table 7 (training-time test
	// multiplies it).
	ForwardPasses int
	// MeanCE is the mean cross-entropy of the drafter against the target
	// token over the batch, before updates.
	MeanCE float64
}
