package draft

import (
	"math/rand"

	"fastrl/internal/gpu"
	"fastrl/internal/model"
)

// Objective selects the drafter training loss.
type Objective int

const (
	// ObjectiveSFT trains on the target's sampled tokens (one-hot CE).
	ObjectiveSFT Objective = iota
	// ObjectiveKD distils the target's full next-token distribution
	// (soft CE), the Eagle-style objective; OSD-style training also
	// lands here.
	ObjectiveKD
)

// EagleConfig parameterises the learned single-layer drafter.
type EagleConfig struct {
	// Variant is a display name ("eagle", "hass", "eagle3").
	Variant string
	Vocab   int
	// Orders are local n-gram context orders (smaller than the target's:
	// the drafter is capacity limited).
	Orders []int
	// PromptOrders are context orders additionally combined with the
	// prompt hash, the drafter's analogue of attending to the prompt
	// through its own embeddings.
	PromptOrders []int
	Buckets      int
	// FusedHiddens is how many trailing hidden sketches are fused as input
	// features (Eagle uses 1; Eagle-3 fuses multiple layers, modelled here
	// as multiple sketches).
	FusedHiddens int
	// UnrollSteps is the training-time-test depth: the number of
	// additional steps trained on the drafter's own predictions
	// (Eagle: 1, HASS: 3, Eagle-3: 7). Multiplies training cost.
	UnrollSteps int
	// RankDropout is the fraction of training examples whose rank features
	// are masked, teaching the drafter the rank-free prediction mode used
	// at draft indices beyond the first (where the root hidden state no
	// longer describes the position being drafted).
	RankDropout float64
	Objective   Objective
	LR          float64
	Seed        int64
	// Arch is the drafter's cost architecture (single decoder layer).
	Arch gpu.Arch
}

// EagleDefault returns the paper's default drafter configuration for a
// target architecture.
func EagleDefault(vocab int, target gpu.Arch) EagleConfig {
	return EagleConfig{
		Variant:      "eagle",
		Vocab:        vocab,
		Orders:       []int{1, 2, 3},
		PromptOrders: []int{1},
		Buckets:      1 << 13,
		FusedHiddens: 1,
		UnrollSteps:  1,
		Objective:    ObjectiveKD,
		RankDropout:  0.3,
		LR:           0.5,
		Seed:         11,
		Arch:         gpu.DraftArch(target),
	}
}

// HASSConfig returns the HASS variant (training-time test, 3 unroll steps).
func HASSConfig(vocab int, target gpu.Arch) EagleConfig {
	c := EagleDefault(vocab, target)
	c.Variant = "hass"
	c.UnrollSteps = 3
	return c
}

// Eagle3Config returns the Eagle-3 variant (fused hidden states, deeper
// training-time test).
func Eagle3Config(vocab int, target gpu.Arch) EagleConfig {
	c := EagleDefault(vocab, target)
	c.Variant = "eagle3"
	c.FusedHiddens = 2
	c.UnrollSteps = 7
	return c
}

// Eagle is the learned single-layer drafter. It predicts the target's next
// token from local n-gram features plus sign features of the target's
// hidden sketch at the drafting root, mirroring how Eagle conditions a
// single decoder layer on target hidden states.
type Eagle struct {
	cfg   EagleConfig
	table *model.Table
	// Version counts applied training batches.
	Version int
	// TrainedPasses accumulates forward passes spent in training (cost
	// accounting for Table 7).
	TrainedPasses int
}

// NewEagle creates an untrained drafter.
func NewEagle(cfg EagleConfig) *Eagle {
	if cfg.Vocab <= 0 || cfg.Buckets <= 0 {
		panic("draft: invalid eagle config")
	}
	if cfg.FusedHiddens < 1 {
		cfg.FusedHiddens = 1
	}
	if cfg.UnrollSteps < 1 {
		cfg.UnrollSteps = 1
	}
	rows := 1 + (len(cfg.Orders)+len(cfg.PromptOrders))*cfg.Buckets +
		(cfg.FusedHiddens-1)*2*model.HiddenDim +
		model.NumRankTokens*cfg.Buckets + model.NumRankTokens*cfg.Vocab
	e := &Eagle{cfg: cfg, table: model.NewTable(rows, cfg.Vocab)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	e.table.Randomize(rng, 0.05)
	return e
}

// Name returns the variant name.
func (e *Eagle) Name() string { return e.cfg.Variant }

// Arch returns the drafter cost architecture.
func (e *Eagle) Arch() gpu.Arch { return e.cfg.Arch }

// FusedHiddens implements Drafter: the rank features read the root
// distribution, and each fused sketch beyond the first adds a layer.
func (e *Eagle) FusedHiddens() int { return e.cfg.FusedHiddens }

// Config returns the configuration.
func (e *Eagle) Config() EagleConfig { return e.cfg }

// Table exposes the trainable weights (checkpointing, size accounting).
func (e *Eagle) Table() *model.Table { return e.table }

// Clone deep-copies the drafter (e.g. to freeze a "vanilla" snapshot).
func (e *Eagle) Clone() *Eagle {
	return &Eagle{cfg: e.cfg, table: e.table.Clone(), Version: e.Version, TrainedPasses: e.TrainedPasses}
}

// CopyWeightsFrom overwrites weights from another drafter with the same
// configuration (rollout-engine weight refresh after spot training).
func (e *Eagle) CopyWeightsFrom(src *Eagle) {
	e.table.CopyFrom(src.table)
	e.Version = src.Version
}

func (e *Eagle) features(tokens []int, promptLen int, hidden *model.HiddenState, dst []int) []int {
	dst = dst[:0]
	base := 1
	for _, k := range e.cfg.Orders {
		h := hashTail(tokens, k)
		dst = append(dst, base+int(h%uint64(e.cfg.Buckets)))
		base += e.cfg.Buckets
	}
	if len(e.cfg.PromptOrders) > 0 {
		n := promptLen
		if n > len(tokens) {
			n = len(tokens)
		}
		ph := hashSlice(tokens[:n], 0x7c15)
		for _, k := range e.cfg.PromptOrders {
			h := hashTail(tokens, k) ^ ph
			dst = append(dst, base+int(h%uint64(e.cfg.Buckets)))
			base += e.cfg.Buckets
		}
	}
	// Extra fused-sketch sign features (Eagle-3 only): one active feature
	// per dimension of each sketch beyond the first. The first sketch's
	// information enters through the rank features below, so plain Eagle
	// keeps a small active-feature set and converges quickly in the short
	// spot-training windows.
	for f := 1; f < e.cfg.FusedHiddens; f++ {
		off := f * model.HiddenDim
		for d := 0; d < model.HiddenDim; d++ {
			bit := 0
			if hidden != nil && off+d < len(hidden.Sketch) && hidden.Sketch[off+d] > 0 {
				bit = 1
			}
			dst = append(dst, base+2*d+bit)
		}
		base += 2 * model.HiddenDim
	}
	// Rank features: the identities of the target's top next tokens at the
	// drafting root, interacted with the local context. These carry the
	// bulk of the hidden state's predictive power at draft index 1, decay
	// at deeper indices (they describe the root position, not the drafted
	// continuation), and — because the mapping is learned per
	// (rank, token, context) combination — genuinely go stale when the
	// target's distributions drift under RL updates.
	if hidden != nil {
		last := -1
		if len(tokens) > 0 {
			last = tokens[len(tokens)-1]
		}
		for j, tok := range hidden.TopTokens {
			if j >= model.NumRankTokens {
				break
			}
			if tok < 0 || tok >= e.cfg.Vocab {
				continue
			}
			// Context-interacted rank feature (specific, drift-sensitive)...
			h := hashPair(uint64(j)<<32|uint64(uint32(tok)), uint64(uint32(last)))
			dst = append(dst, base+j*e.cfg.Buckets+int(h%uint64(e.cfg.Buckets)))
			// ...plus a plain rank feature as a generalisation floor for
			// combinations unseen in training.
			dst = append(dst, base+model.NumRankTokens*e.cfg.Buckets+j*e.cfg.Vocab+tok)
		}
	}
	return dst
}

func hashPair(a, b uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Probs implements Drafter, allocation-free in steady state.
func (e *Eagle) Probs(tokens []int, promptLen int, hidden *model.HiddenState, temp float64, dst []float32, sc *model.Scratch) {
	var featBuf [80]int
	feats := e.features(tokens, promptLen, hidden, featBuf[:0])
	logits := sc.Logits(e.cfg.Vocab)
	e.table.Accumulate(feats, logits)
	model.Softmax(logits, temp, dst)
}

// Train performs one SGD pass over the examples against the target model.
// The target is consulted for unrolled (training-time-test) positions;
// pass nil target to disable unrolling regardless of configuration. Every
// forward pass counts into TrainedPasses.
func (e *Eagle) Train(examples []*Example, target *model.LM, rng *rand.Rand) {
	if len(examples) == 0 {
		return
	}
	q := make([]float32, e.cfg.Vocab)
	grad := make([]float32, e.cfg.Vocab)
	logits := make([]float32, e.cfg.Vocab)
	// unroll's buffers: the target's distribution, and room for the
	// longest context plus every unrolled token.
	var tp []float32
	var context []int
	if e.cfg.UnrollSteps > 1 && target != nil {
		longest := 0
		for _, ex := range examples {
			longest = max(longest, len(ex.Tokens))
		}
		tp = make([]float32, e.cfg.Vocab)
		context = make([]int, 0, longest+e.cfg.UnrollSteps)
	}
	var featBuf [80]int
	var dropped model.HiddenState
	for _, ex := range examples {
		hid := ex.Hidden
		if e.cfg.RankDropout > 0 && hid != nil && rng != nil && rng.Float64() < e.cfg.RankDropout {
			dropped = model.HiddenState{Sketch: hid.Sketch}
			hid = &dropped
		}
		feats := e.features(ex.Tokens, ex.PromptLen, hid, featBuf[:0])
		e.table.Accumulate(feats, logits)
		model.Softmax(logits, 1, q)
		e.applyGrad(feats, q, grad, ex)

		if tp != nil {
			e.unroll(ex, target, q, grad, logits, tp, context, rng)
		}
	}
	e.Version++
	e.TrainedPasses += len(examples)
}

func (e *Eagle) applyGrad(feats []int, q []float32, grad []float32, ex *Example) {
	switch {
	case e.cfg.Objective == ObjectiveKD && ex.Target != nil:
		model.Sub(grad, ex.Target, q)
	default:
		for v := range grad {
			grad[v] = -q[v]
		}
		grad[ex.TargetTok] += 1
	}
	e.table.AddGrad(feats, grad, float32(e.cfg.LR))
}

// unroll performs HASS-style training-time test: continue from the
// example's context using the drafter's own greedy predictions (with the
// stale root hidden), supervised by the target model's distribution at
// each unrolled position. This teaches the drafter to stay aligned at
// deeper draft indices, at the cost of extra target forward passes.
func (e *Eagle) unroll(ex *Example, target *model.LM, q, grad, logits, tp []float32, context []int, rng *rand.Rand) {
	extended := append(context[:0], ex.Tokens...)
	extended = append(extended, ex.TargetTok)
	var featBuf [80]int
	unrollHidden := model.HiddenState{Sketch: ex.Hidden.Sketch}
	for step := 1; step < e.cfg.UnrollSteps; step++ {
		feats := e.features(extended, ex.PromptLen, &unrollHidden, featBuf[:0])
		e.table.Accumulate(feats, logits)
		model.Softmax(logits, 1, q)
		e.TrainedPasses++

		tctx := model.Context{Tokens: extended, PromptLen: ex.PromptLen}
		target.Probs(tctx, nil, 1, tp)
		model.Sub(grad, tp, q)
		e.table.AddGrad(feats, grad, float32(e.cfg.LR))

		extended = append(extended, model.SampleProbs(tp, rng))
	}
}

// TopKAccuracy returns the fraction of examples whose target token is in
// the drafter's top-k prediction — the Fig. 15 metric (k=3 in the paper).
func (e *Eagle) TopKAccuracy(examples []*Example, k int) float64 {
	if len(examples) == 0 {
		return 0
	}
	probs := make([]float32, e.cfg.Vocab)
	sc := model.NewScratch()
	hits := 0
	for _, ex := range examples {
		e.Probs(ex.Tokens, ex.PromptLen, ex.Hidden, 1, probs, sc)
		for _, v := range model.TopK(probs, k) {
			if v == ex.TargetTok {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(examples))
}

func hashTail(ts []int, k int) uint64 {
	start := len(ts) - k
	if start < 0 {
		start = 0
	}
	h := uint64(k)*0x100000001b3 ^ 14695981039346656037
	for _, t := range ts[start:] {
		h ^= uint64(uint32(t)) + 0x9e3779b9
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
