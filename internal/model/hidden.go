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
type HiddenState struct {
	// Sketch is one or more concatenated HiddenDim-sized projections
	// (sketch s covers the context with its last s tokens removed,
	// mirroring Eagle-3's multi-layer fusion).
	Sketch []float32
	// TopTokens are the target's NumRankTokens most likely next tokens at
	// the root context, most likely first.
	TopTokens []int
}

// FusedHiddenInto computes the drafting-root hidden state with the given
// number of fused sketches into h (Eagle uses 1, Eagle-3 2; callers
// typically request 2 so either drafter can consume it). It reuses h's
// Sketch and TopTokens buffers, so a speculation engine computes the
// drafting-root state every round without allocating.
func FusedHiddenInto(m *LM, ctx Context, sketches int, h *HiddenState, sc *Scratch) *HiddenState {
	if sketches < 1 {
		sketches = 1
	}
	need := sketches * HiddenDim
	if cap(h.Sketch) < need {
		h.Sketch = make([]float32, need)
	}
	h.Sketch = h.Sketch[:need]
	for i := range h.Sketch {
		h.Sketch[i] = 0
	}
	probs := sc.probsBuf(m.cfg.Vocab)
	m.HiddenProbsScratch(ctx, h.Sketch[:HiddenDim], probs, sc)
	for s := 1; s < sketches; s++ {
		n := len(ctx.Tokens) - s
		if n < 0 {
			break
		}
		sub := Context{Tokens: ctx.Tokens[:n], PromptLen: ctx.PromptLen}
		m.HiddenScratch(sub, h.Sketch[s*HiddenDim:(s+1)*HiddenDim], sc)
	}
	h.TopTokens = TopKInto(probs, NumRankTokens, h.TopTokens[:0])
	return h
}
