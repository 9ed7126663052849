package draft

import (
	"sync"

	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
	"fastrl/internal/model"
)

// NGram is the model-free retrieval drafter: it indexes token n-grams seen
// in earlier rollout responses and proposes the most recent observed
// continuation for the current context. Because candidate responses for
// the same prompt share notation and phrasing, this is a surprisingly
// effective (and training-free) proposal distribution — TLT uses it as
// the fallback before the learned drafter is ready (TLT-Base).
type NGram struct {
	mu sync.RWMutex
	// MaxOrder..MinOrder matching, longest first.
	MaxOrder int
	MinOrder int
	vocab    int
	// Hit confidence: probability mass placed on a retrieved continuation.
	Confidence float32
	table      map[uint64]int // context hash -> most recent next token
	// lookups is the shared bounded hit/miss accounting (metrics.Ratio),
	// the same helper the prefix cache and serving probes use.
	lookups metrics.Ratio
}

// NewNGram creates a drafter matching contexts of length MinOrder..MaxOrder.
func NewNGram(vocab, minOrder, maxOrder int) *NGram {
	if minOrder < 1 {
		minOrder = 1
	}
	if maxOrder < minOrder {
		maxOrder = minOrder
	}
	return &NGram{
		MaxOrder:   maxOrder,
		MinOrder:   minOrder,
		vocab:      vocab,
		Confidence: 0.85,
		table:      make(map[uint64]int),
	}
}

// Name implements Drafter.
func (g *NGram) Name() string { return "ngram" }

// Arch implements Drafter; the zero Arch marks a model-free drafter whose
// proposals cost no GPU time.
func (g *NGram) Arch() gpu.Arch { return gpu.Arch{} }

// Observe indexes all n-grams of a (partial or complete) response.
func (g *NGram) Observe(tokens []int, promptLen int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for pos := promptLen; pos < len(tokens); pos++ {
		for k := g.MinOrder; k <= g.MaxOrder; k++ {
			if pos-k < 0 {
				continue
			}
			h := hashSlice(tokens[pos-k:pos], k)
			g.table[h] = tokens[pos]
		}
	}
}

// FusedHiddens implements Drafter: retrieval reads no hidden layer.
func (g *NGram) FusedHiddens() int { return 0 }

// Probs implements Drafter: longest-match retrieval with mass Confidence
// on the retrieved token and the remainder spread uniformly; uniform when
// nothing matches. It needs no scratch.
func (g *NGram) Probs(tokens []int, promptLen int, hidden *model.HiddenState, temp float64, dst []float32, _ *model.Scratch) {
	g.mu.Lock()
	defer g.mu.Unlock()
	uniform := float32(1) / float32(g.vocab)
	for k := g.MaxOrder; k >= g.MinOrder; k-- {
		if len(tokens) < k {
			continue
		}
		h := hashSlice(tokens[len(tokens)-k:], k)
		if next, ok := g.table[h]; ok {
			g.lookups.Observe(true)
			rest := (1 - g.Confidence) / float32(g.vocab)
			for v := range dst {
				dst[v] = rest
			}
			dst[next] += g.Confidence
			return
		}
	}
	g.lookups.Observe(false)
	for v := range dst {
		dst[v] = uniform
	}
}

// HitRate reports the fraction of lookups that matched.
func (g *NGram) HitRate() float64 { return g.lookups.Rate() }

// Size returns the number of indexed n-grams.
func (g *NGram) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.table)
}

func hashSlice(ts []int, salt int) uint64 {
	h := uint64(salt)*0x9e3779b97f4a7c15 ^ 14695981039346656037
	for _, t := range ts {
		h ^= uint64(uint32(t)) + 0x9e3779b9
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
