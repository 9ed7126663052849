package draft

import (
	"fastrl/internal/model"
)

// HarvestExamples recomputes drafter training examples from a finished (or
// partial) sequence, exactly as the RL inference stage does when it
// prefills responses through the target model: for every generated
// position it records the context, the target's hidden sketch, the
// target's next-token distribution, and the token actually produced.
//
// withDist controls whether the full target distribution is stored (needed
// by KD objectives; costs vocab floats per position).
//
// Each position accumulates the target's logits once: its first sketch
// and its distribution come from the same logits, the distribution gives
// both TopTokens and Target, and its second sketch, which covers the
// context one token shorter, is the previous position's first. The
// sequence's examples, hidden states, sketches, top tokens and
// distributions are each one allocation.
func HarvestExamples(target *model.LM, seq model.Context, withDist bool) []*Example {
	n := len(seq.Tokens)
	if seq.PromptLen >= n {
		return nil
	}
	const d, k = model.HiddenDim, model.NumRankTokens
	count := n - seq.PromptLen
	vocab := target.Config().Vocab
	exs := make([]Example, count)
	hiddens := make([]model.HiddenState, count)
	sketches := make([]float32, count*2*d)
	tops := make([]int, count*k)
	var dists []float32
	if withDist {
		dists = make([]float32, count*vocab)
	} else {
		dists = make([]float32, vocab) // reused by every position
	}
	sc := scratchPool.Get().(*model.Scratch)
	defer scratchPool.Put(sc)
	out := make([]*Example, count)
	for i := range exs {
		pos := seq.PromptLen + i
		ctx := model.Context{Tokens: seq.Tokens[:pos], PromptLen: seq.PromptLen}
		sketch := sketches[i*2*d : (i+1)*2*d : (i+1)*2*d]
		dist := dists
		if withDist {
			dist = dists[i*vocab : (i+1)*vocab : (i+1)*vocab]
		}
		target.HiddenProbsScratch(ctx, sketch[:d], dist, sc)
		switch {
		case i > 0:
			copy(sketch[d:], sketches[(i-1)*2*d:(i-1)*2*d+d])
		case pos > 0:
			shorter := model.Context{Tokens: seq.Tokens[:pos-1], PromptLen: seq.PromptLen}
			target.HiddenScratch(shorter, sketch[d:], sc)
		}
		hiddens[i] = model.HiddenState{Sketch: sketch, TopTokens: model.TopKInto(dist, k, tops[i*k:i*k:(i+1)*k])}
		exs[i] = Example{
			Tokens:    seq.Tokens[:pos:pos],
			PromptLen: seq.PromptLen,
			Hidden:    &hiddens[i],
			TargetTok: seq.Tokens[pos],
			SeqLen:    count,
		}
		if withDist {
			exs[i].Target = dist
		}
		out[i] = &exs[i]
	}
	return out
}
