package model

import (
	"math"
	"math/rand"
	"sort"

	"fastrl/internal/gpu"
)

// HiddenDim is the dimensionality of the exposed hidden-state sketch
// consumed by Eagle-style drafters.
const HiddenDim = 32

// maxFeatures bounds the active feature rows per context
// (len(Orders)+len(PromptOrders)). The scoring hot paths stage features
// in [maxFeatures]int stack buffers; New rejects configs that exceed it
// so the zero-allocation contract cannot silently break.
const maxFeatures = 8

// Config parameterises a target LM.
type Config struct {
	// Vocab is the vocabulary size.
	Vocab int
	// Orders are the n-gram context orders (e.g. 1,2,3).
	Orders []int
	// PromptOrders are the context orders additionally combined with the
	// prompt hash. They stand in for attention to the prompt: they let the
	// model condition its next token on which problem it is solving even
	// when the prompt has scrolled out of the local n-gram window.
	PromptOrders []int
	// Buckets is the number of hash buckets per order.
	Buckets int
	// InitScale is the Gaussian scale of random initialisation; larger
	// values make the base distribution more peaked.
	InitScale float64
	// PromptScale attenuates the initial weight scale of prompt-combined
	// feature rows relative to InitScale. Prompt conditioning stays
	// RL-learnable (policy gradients update the rows), but the base
	// distribution is dominated by shared n-gram structure, as in real
	// language models where most next-token mass is locally predictable.
	PromptScale float64
	// Seed drives deterministic initialisation.
	Seed int64
	// Arch is the cost-model architecture this LM represents.
	Arch gpu.Arch
}

// DefaultConfig returns the standard target configuration for the given
// cost-model architecture.
func DefaultConfig(vocab int, arch gpu.Arch) Config {
	return Config{
		Vocab:        vocab,
		Orders:       []int{1, 2, 3},
		PromptOrders: []int{1, 2},
		Buckets:      1 << 14,
		InitScale:    2.2,
		PromptScale:  0.35,
		Seed:         arch2seed(arch),
		Arch:         arch,
	}
}

func arch2seed(a gpu.Arch) int64 {
	var h uint64 = 1469598103934665603
	for _, c := range []byte(a.Name) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// Context is the model input for one position: the full token sequence so
// far and the length of the prompt prefix.
type Context struct {
	Tokens    []int
	PromptLen int
}

// PromptHash returns a stable hash of the prompt prefix.
func (c Context) PromptHash() uint64 {
	return hashTokens(c.Tokens[:min(c.PromptLen, len(c.Tokens))], 0x9e3779b97f4a7c15)
}

// LM is the simulated target language model.
type LM struct {
	cfg   Config
	table *Table
	// proj is a fixed random projection of logits into the hidden sketch;
	// it is part of the frozen "architecture", not trained.
	proj [][]float32
	// Version counts applied weight updates (RL steps); drafters use it to
	// detect staleness.
	Version int
}

// New creates an LM with deterministic random initialisation plus a light
// grammar prior (digits follow the answer marker, end-of-sequence follows
// an answer digit) so base models emit well-formed answers at a
// better-than-chance rate, as a pretrained base model would.
func New(cfg Config, grammar *GrammarPrior) *LM {
	if cfg.Vocab <= 0 || cfg.Buckets <= 0 {
		panic("model: invalid config")
	}
	if len(cfg.Orders)+len(cfg.PromptOrders) > maxFeatures {
		// The scoring hot paths stage features in fixed stack buffers of
		// this size; exceeding it would silently spill to the heap and
		// break the zero-allocation contract.
		panic("model: too many feature orders (raise maxFeatures)")
	}
	rows := 1 + (len(cfg.Orders)+len(cfg.PromptOrders))*cfg.Buckets
	m := &LM{cfg: cfg, table: NewTable(rows, cfg.Vocab)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m.table.Randomize(rng, cfg.InitScale)
	if cfg.PromptScale > 0 && cfg.PromptScale != 1 {
		// Attenuate prompt-combined rows (the trailing blocks).
		first := 1 + len(cfg.Orders)*cfg.Buckets
		for r := first; r < rows; r++ {
			row := m.table.Row(r)
			for v := range row {
				row[v] *= float32(cfg.PromptScale)
			}
		}
	}

	m.proj = make([][]float32, HiddenDim)
	projRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))
	for d := range m.proj {
		row := make([]float32, cfg.Vocab)
		for v := range row {
			row[v] = float32(projRng.NormFloat64())
		}
		m.proj[d] = row
	}
	if grammar != nil {
		grammar.apply(m)
	}
	return m
}

// Config returns the model configuration.
func (m *LM) Config() Config { return m.cfg }

// Arch returns the cost-model architecture.
func (m *LM) Arch() gpu.Arch { return m.cfg.Arch }

// Clone deep-copies the model (used to freeze the GRPO reference model).
func (m *LM) Clone() *LM {
	c := &LM{cfg: m.cfg, table: m.table.Clone(), proj: m.proj, Version: m.Version}
	return c
}

// CopyWeightsFrom overwrites weights from another LM with the same config.
func (m *LM) CopyWeightsFrom(src *LM) {
	m.table.CopyFrom(src.table)
	m.Version = src.Version
}

// Table exposes the weight table (for checkpoint/size accounting).
func (m *LM) Table() *Table { return m.table }

// Features computes the active feature rows for a context. The returned
// slice is valid until the next call with the same dst.
func (m *LM) Features(ctx Context, dst []int) []int {
	return m.featuresHashed(ctx.Tokens, ctx.PromptHash(), dst)
}

// featuresHashed computes feature rows with a precomputed prompt hash, so
// batched scoring can share the hash across contexts with a common prompt.
func (m *LM) featuresHashed(tokens []int, promptHash uint64, dst []int) []int {
	dst = dst[:0]
	base := 1
	for _, k := range m.cfg.Orders {
		h := hashTokens(tail(tokens, k), uint64(k)*0x100000001b3)
		dst = append(dst, base+int(h%uint64(m.cfg.Buckets)))
		base += m.cfg.Buckets
	}
	for _, k := range m.cfg.PromptOrders {
		h := hashTokens(tail(tokens, k), uint64(k)*0x100000001b3) ^ promptHash
		dst = append(dst, base+int(h%uint64(m.cfg.Buckets)))
		base += m.cfg.Buckets
	}
	return dst
}

// Logits computes next-token logits for a context into dst (len Vocab).
// bias, if non-nil, is added to the named token ids; workload generators
// use it to impose per-request length priors (e.g. discouraging EOS for
// hard problems) without touching model weights.
func (m *LM) Logits(ctx Context, bias map[int]float32, dst []float32) {
	var featBuf [maxFeatures]int
	feats := m.Features(ctx, featBuf[:0])
	m.table.Accumulate(feats, dst)
	if len(bias) > 0 {
		// Apply in ascending id order: map iteration order would make
		// float32 accumulation (and thus sampling) nondeterministic.
		ids := make([]int, 0, len(bias))
		for id := range bias {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if id >= 0 && id < len(dst) {
				dst[id] += bias[id]
			}
		}
	}
}

// Probs computes the next-token distribution at the given temperature. It
// is a thin wrapper over ProbsScratch with a pooled scratch; engines with
// their own Scratch call ProbsScratch/ProbsBatch directly.
func (m *LM) Probs(ctx Context, bias map[int]float32, temp float64, dst []float32) {
	sc := scratchPool.Get().(*Scratch)
	m.ProbsScratch(ctx, bias, temp, dst, sc)
	scratchPool.Put(sc)
}

// PolicyGradientStep applies one REINFORCE-style update for a single
// response: for every generated position, the gradient of log p(token)
// scaled by the advantage, with an optional per-token KL penalty toward
// the reference model. Returns the mean KL (estimated as in GRPO) for
// diagnostics.
func (m *LM) PolicyGradientStep(ctx Context, advantage float64, lr float64, temp float64, ref *LM, klCoef float64) float64 {
	tokens := ctx.Tokens
	promptLen := ctx.PromptLen
	if promptLen >= len(tokens) {
		return 0
	}
	probs := make([]float32, m.cfg.Vocab)
	refProbs := make([]float32, m.cfg.Vocab)
	grad := make([]float32, m.cfg.Vocab)
	logits := make([]float32, m.cfg.Vocab)
	var featBuf [maxFeatures]int
	var klSum float64
	var klN int
	for pos := promptLen; pos < len(tokens); pos++ {
		sub := Context{Tokens: tokens[:pos], PromptLen: promptLen}
		feats := m.Features(sub, featBuf[:0])
		m.table.Accumulate(feats, logits)
		Softmax(logits, temp, probs)
		tok := tokens[pos]

		// Policy-gradient term: A * (onehot - p).
		for v := range grad {
			grad[v] = -probs[v] * float32(advantage)
		}
		grad[tok] += float32(advantage)

		if ref != nil && klCoef > 0 {
			ref.Probs(sub, nil, temp, refProbs)
			// k3 estimator (Schulman): r - 1 - log r with r = ref/p at the
			// sampled token; gradient pulls p toward ref. r is clamped so
			// the diagnostic stays finite when the policy drifts far from
			// the reference at rare tokens.
			r := float64(refProbs[tok]) / (float64(probs[tok]) + 1e-9)
			if r > 1e3 {
				r = 1e3
			}
			kl := r - 1 - logSafe(r)
			klSum += kl
			klN++
			for v := range grad {
				grad[v] += float32(klCoef) * (refProbs[v] - probs[v])
			}
		}
		m.table.AddGrad(feats, grad, float32(lr))
	}
	m.Version++
	if klN == 0 {
		return 0
	}
	return klSum / float64(klN)
}

// GrammarPrior injects a light structural prior into a freshly initialised
// model, standing in for the base model's pretraining: answers are digit
// sequences terminated by EOS, and the answer marker is reachable.
type GrammarPrior struct {
	AnswerID int
	EosID    int
	DigitIDs []int
	// Strength is the logit boost applied to preferred continuations.
	Strength float32
}

func (g *GrammarPrior) apply(m *LM) {
	if g.Strength == 0 {
		g.Strength = 20
	}
	// After the answer marker, emit a digit. The order-1 feature row for
	// tail [<answer>] fires for any context ending in the marker,
	// regardless of prompt, so the rule transfers universally.
	row := m.table.Row(m.orderRow(1, []int{g.AnswerID}))
	for _, v := range g.DigitIDs {
		row[v] += g.Strength
	}
	// After <answer> digit, finish. Applied through the order-2 row so it
	// only fires in answer position, not after every digit in reasoning.
	for _, d := range g.DigitIDs {
		r := m.table.Row(m.orderRow(2, []int{g.AnswerID, d}))
		r[g.EosID] += g.Strength
	}
	// Give every context a mild global pull toward eventually answering,
	// via the bias row.
	bias := m.table.Row(0)
	bias[g.AnswerID] += 1.2
	bias[g.EosID] -= 1.5
}

// orderRow returns the table row index of the plain n-gram feature of
// order k with the given tail tokens. It panics if k is not a configured
// order.
func (m *LM) orderRow(k int, tailToks []int) int {
	base := 1
	for _, o := range m.cfg.Orders {
		if o == k {
			h := hashTokens(tailToks, uint64(k)*0x100000001b3)
			return base + int(h%uint64(m.cfg.Buckets))
		}
		base += m.cfg.Buckets
	}
	panic("model: order not configured")
}

func tail(ts []int, k int) []int {
	if len(ts) <= k {
		return ts
	}
	return ts[len(ts)-k:]
}

func hashTokens(ts []int, salt uint64) uint64 {
	h := salt ^ 14695981039346656037
	for _, t := range ts {
		h ^= uint64(uint32(t)) + 0x9e3779b9
		h *= 1099511628211
	}
	// Finalise to spread low bits.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func tanh32(x float32) float32 {
	if x > 5 {
		return 1
	}
	if x < -5 {
		return -1
	}
	e2 := math.Exp(float64(2 * x))
	return float32((e2 - 1) / (e2 + 1))
}

func logSafe(x float64) float64 {
	if x <= 0 {
		return -20
	}
	return math.Log(x)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
