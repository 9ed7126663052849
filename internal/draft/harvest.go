package draft

import (
	"fastrl/internal/model"
)

// HarvestExamples recomputes drafter training examples from a finished (or
// partial) sequence, exactly as the RL inference stage does when it
// prefills responses through the target model: for every generated
// position it records the context, the target's hidden state, the
// target's next-token distribution, and the token actually produced.
//
// layers is the FusedHiddens of the drafters that will train on the
// examples, and each hidden state equals model.FusedHiddenInto's for it:
// the top tokens alone for 1 (Eagle, HASS), the top tokens and that many
// sketches for 2 or more (Eagle-3). A corpus shared by several drafters
// takes the largest count.
//
// withDist controls whether the full target distribution is stored (needed
// by KD objectives; costs vocab floats per position).
//
// Each position accumulates the target's logits once: its first sketch
// and its distribution come from the same logits, the distribution gives
// both TopTokens and Target, and its sketch s, which covers the context s
// tokens shorter, is the first sketch of the position s back. The
// sequence's examples, hidden states, sketches, top tokens and
// distributions are each one allocation.
func HarvestExamples(target *model.LM, seq model.Context, layers int, withDist bool) []*Example {
	n := len(seq.Tokens)
	if seq.PromptLen >= n {
		return nil
	}
	const d, k = model.HiddenDim, model.NumRankTokens
	sketchN := model.Sketches(layers)
	w := sketchN * d
	count := n - seq.PromptLen
	vocab := target.Config().Vocab
	exs := make([]Example, count)
	hiddens := make([]model.HiddenState, count)
	var sketches []float32
	if w > 0 {
		sketches = make([]float32, count*w)
	}
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
		dist := dists
		if withDist {
			dist = dists[i*vocab : (i+1)*vocab : (i+1)*vocab]
		}
		var sketch []float32
		if w > 0 {
			sketch = sketches[i*w : (i+1)*w : (i+1)*w]
			target.HiddenProbsScratch(ctx, sketch[:d], dist, sc)
			for s := 1; s < sketchN; s++ {
				switch {
				case i >= s:
					copy(sketch[s*d:(s+1)*d], sketches[(i-s)*w:(i-s)*w+d])
				case pos >= s:
					shorter := model.Context{Tokens: seq.Tokens[:pos-s], PromptLen: seq.PromptLen}
					target.HiddenScratch(shorter, sketch[s*d:(s+1)*d], sc)
				}
			}
		} else {
			target.ProbsScratch(ctx, nil, 1, dist, sc)
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
