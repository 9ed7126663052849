package model

// NumRankTokens is how many of the target's top-ranked next tokens are
// exposed in the hidden state sketch.
const NumRankTokens = 4

// HiddenState is the target-internal information exposed to Eagle-style
// drafters at the drafting root, standing in for the transformer hidden
// state Eagle conditions on. A real hidden state determines the target's
// next-token distribution exactly (it is the LM-head input); the sketch
// preserves that property approximately via (a) a fixed random projection
// of the logits and (b) the identities of the top-ranked next tokens.
//
// A drafter reads a number of hidden layers (draft.Drafter's
// FusedHiddens): layer 0 is the root distribution, which reaches Eagle,
// HASS and Eagle-3 through TopTokens; layer s ≥ 1 is sketch s, whose signs
// only Eagle-3 reads. No drafter reads sketch 0; only the prefix cache
// stores it (BoundaryHiddenInto).
type HiddenState struct {
	// Sketch is zero or more concatenated HiddenDim-sized projections
	// (sketch s covers the context with its last s tokens removed,
	// mirroring Eagle-3's multi-layer fusion).
	Sketch []float32
	// TopTokens are the target's NumRankTokens most likely next tokens at
	// the root context, most likely first.
	TopTokens []int
}

// FusedHiddenInto computes into h the drafting-root state a drafter that
// reads the given number of hidden layers needs, and nothing more: nil for
// 0 (model-free drafters), only TopTokens for 1 (Eagle, HASS), and the
// root's TopTokens plus that many sketches for 2 or more (Eagle-3). It
// reuses h's Sketch and TopTokens buffers, so a speculation engine
// computes the drafting-root state every round without allocating.
func FusedHiddenInto(m *LM, ctx Context, layers int, h *HiddenState, sc *Scratch) *HiddenState {
	if layers < 1 {
		return nil
	}
	return sketchesInto(m, ctx, Sketches(layers), h, sc)
}

// Sketches returns how many sketches the state for the given number of
// hidden layers holds: none for one layer, whose root distribution reaches
// the drafter through TopTokens alone, and otherwise one per layer, sketch
// 0 included, so that sketch s sits at offset s·HiddenDim.
func Sketches(layers int) int {
	if layers < 2 {
		return 0
	}
	return layers
}

// BoundaryHiddenInto computes the state the prefix cache stores at a
// prompt boundary: sketch 0 and the top tokens. The cache charges these
// bytes against its budget, so they fix its evictions.
func BoundaryHiddenInto(m *LM, ctx Context, h *HiddenState, sc *Scratch) *HiddenState {
	return sketchesInto(m, ctx, 1, h, sc)
}

// sketchesInto computes ctx's top tokens and the given number of sketches
// into h. The distribution comes from one logits accumulation, which also
// yields sketch 0 when any sketch is asked for.
func sketchesInto(m *LM, ctx Context, sketches int, h *HiddenState, sc *Scratch) *HiddenState {
	need := sketches * HiddenDim
	if cap(h.Sketch) < need {
		h.Sketch = make([]float32, need)
	}
	h.Sketch = h.Sketch[:need]
	probs := sc.probsBuf(m.cfg.Vocab)
	if sketches == 0 {
		m.ProbsScratch(ctx, nil, 1, probs, sc)
	} else {
		for i := range h.Sketch {
			h.Sketch[i] = 0
		}
		m.HiddenProbsScratch(ctx, h.Sketch[:HiddenDim], probs, sc)
		for s := 1; s < sketches; s++ {
			n := len(ctx.Tokens) - s
			if n < 0 {
				break
			}
			sub := Context{Tokens: ctx.Tokens[:n], PromptLen: ctx.PromptLen}
			m.HiddenScratch(sub, h.Sketch[s*HiddenDim:(s+1)*HiddenDim], sc)
		}
	}
	h.TopTokens = TopKInto(probs, NumRankTokens, h.TopTokens[:0])
	return h
}
