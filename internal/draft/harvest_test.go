package draft

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastrl/internal/model"
)

// harvestReference is the per-position harvest HarvestExamples replaced:
// every position builds the drafting-root state for the given layers from
// scratch and then scores the KD target again.
func harvestReference(target *model.LM, seq model.Context, layers int, withDist bool) []*Example {
	n := len(seq.Tokens)
	if seq.PromptLen >= n {
		return nil
	}
	vocab := target.Config().Vocab
	out := make([]*Example, 0, n-seq.PromptLen)
	for pos := seq.PromptLen; pos < n; pos++ {
		ctx := model.Context{Tokens: seq.Tokens[:pos], PromptLen: seq.PromptLen}
		hidden := model.FusedHiddenInto(target, ctx, layers, &model.HiddenState{}, model.NewScratch())
		ex := &Example{
			Tokens:    seq.Tokens[:pos:pos],
			PromptLen: seq.PromptLen,
			Hidden:    hidden,
			TargetTok: seq.Tokens[pos],
			SeqLen:    n - seq.PromptLen,
		}
		if withDist {
			dist := make([]float32, vocab)
			target.Probs(ctx, nil, 1, dist)
			ex.Target = dist
		}
		out = append(out, ex)
	}
	return out
}

// TestHarvestMatchesReference: the single-pass harvest must reproduce the
// per-position reference field for field and bit for bit, for one hidden
// layer (Eagle, HASS) and two (Eagle-3), at prompt lengths 0, 1 and a
// typical 5, with and without distributions.
func TestHarvestMatchesReference(t *testing.T) {
	lm, tk := newTarget(t)
	rng := rand.New(rand.NewSource(9))
	seq := model.Generate(lm, []int{tk.Bos(), tk.Digit(7), tk.MustID("+"), tk.Digit(5), tk.MustID("=")}, nil, 1, 40, tk.Eos(), rng)
	for _, layers := range []int{1, 2} {
		for _, promptLen := range []int{0, 1, 5} {
			for _, withDist := range []bool{false, true} {
				ctx := model.Context{Tokens: seq, PromptLen: promptLen}
				got, want := HarvestExamples(lm, ctx, layers, withDist), harvestReference(lm, ctx, layers, withDist)
				if len(got) != len(want) {
					t.Fatalf("layers %d prompt %d dist %v: %d examples, reference %d", layers, promptLen, withDist, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					same := slices.Equal(g.Tokens, w.Tokens) && len(g.Tokens) == cap(g.Tokens) &&
						g.PromptLen == w.PromptLen && g.TargetTok == w.TargetTok && g.SeqLen == w.SeqLen &&
						slices.Equal(g.Hidden.TopTokens, w.Hidden.TopTokens) &&
						sameFloatBits(g.Hidden.Sketch, w.Hidden.Sketch) &&
						(g.Target == nil) == (w.Target == nil) && sameFloatBits(g.Target, w.Target)
					if !same {
						t.Fatalf("layers %d prompt %d dist %v: example %d differs:\n got  %+v\n want %+v", layers, promptLen, withDist, i, *g, *w)
					}
				}
			}
		}
	}
}

func sameFloatBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
