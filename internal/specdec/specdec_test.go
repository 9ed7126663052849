package specdec

import (
	"math"
	"math/rand"
	"testing"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/tokenizer"
)

// Warm-up volume for the shared drafter used across tests.
const (
	nWarmPrompts = 150
	nWarmEpochs  = 6
)

func newSetup(t testing.TB) (*model.LM, *draft.Eagle, *tokenizer.Tokenizer) {
	t.Helper()
	tk := tokenizer.New()
	cfg := model.DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	cfg.Buckets = 1 << 10
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	lm := model.New(cfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})

	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(21))
	var examples []*draft.Example
	for i := 0; i < nWarmPrompts; i++ {
		prompt := testPrompt(tk, rng)
		seq := model.Generate(lm, prompt, nil, 1, 60, tk.Eos(), rng)
		examples = append(examples, draft.HarvestExamples(lm, model.Context{Tokens: seq, PromptLen: len(prompt)}, e.FusedHiddens(), true)...)
	}
	for epoch := 0; epoch < nWarmEpochs; epoch++ {
		e.Train(examples, nil, rng)
	}
	return lm, e, tk
}

func testPrompt(tk *tokenizer.Tokenizer, rng *rand.Rand) []int {
	return []int{tk.Bos(), tk.Digit(rng.Intn(10)), tk.MustID("+"), tk.Digit(rng.Intn(10)), tk.MustID("=")}
}

// TestGreedyExactness: with temperature 0, speculative decoding must
// reproduce the target's greedy decode token for token, for any strategy.
func TestGreedyExactness(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(5))
	strategies := []Params{
		{DraftDepth: 1, TopK: 1, TokensToVerify: 1},
		{DraftDepth: 4, TopK: 1, TokensToVerify: 4},
		{DraftDepth: 6, TopK: 4, TokensToVerify: 16},
		{DraftDepth: 12, TopK: 8, TokensToVerify: 64},
	}
	for _, p := range strategies {
		for trial := 0; trial < 5; trial++ {
			prompt := testPrompt(tk, rng)
			want := model.Generate(lm, prompt, nil, 0, 40, tk.Eos(), rng)

			eng := &Engine{Target: lm, Temp: 0, EosID: tk.Eos()}
			got := append([]int(nil), prompt...)
			for len(got)-len(prompt) < 40 {
				res := eng.Step(e, got, len(prompt), p, rng)
				got = append(got, res.Tokens...)
				if res.Eos {
					break
				}
			}
			if len(got) < len(want) {
				t.Fatalf("strategy %+v: speculative output shorter than greedy: %d vs %d", p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("strategy %+v trial %d: token %d differs: %s vs %s",
						p, trial, i, tk.Token(got[i]), tk.Token(want[i]))
				}
			}
		}
	}
}

// TestStochasticLosslessness: the single-step marginal of the first token
// emitted by a speculation round must match the target distribution. This
// is the chain-rule verification's exactness property; multi-token
// losslessness follows by induction over positions.
func TestStochasticLosslessness(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(6))
	prompt := testPrompt(tk, rng)

	vocab := tk.VocabSize()
	want := make([]float32, vocab)
	lm.Probs(model.Context{Tokens: prompt, PromptLen: len(prompt)}, nil, 0.9, want)

	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	p := Params{DraftDepth: 6, TopK: 4, TokensToVerify: 16}
	const n = 60000
	counts := make([]int, vocab)
	for i := 0; i < n; i++ {
		res := eng.Step(e, prompt, len(prompt), p, rng)
		if len(res.Tokens) == 0 {
			t.Fatal("empty speculation round")
		}
		counts[res.Tokens[0]]++
	}
	// Chi-square goodness of fit over tokens with expected count >= 5.
	var chi2 float64
	dof := 0
	var restExp, restObs float64
	for v := 0; v < vocab; v++ {
		exp := float64(want[v]) * n
		if exp < 5 {
			restExp += exp
			restObs += float64(counts[v])
			continue
		}
		d := float64(counts[v]) - exp
		chi2 += d * d / exp
		dof++
	}
	if restExp > 5 {
		d := restObs - restExp
		chi2 += d * d / restExp
		dof++
	}
	dof-- // one constraint: totals match
	if dof < 1 {
		t.Skip("degenerate distribution, nothing to test")
	}
	// 99.9% critical value approximation: dof + 3.29*sqrt(2*dof) + 5.
	crit := float64(dof) + 3.29*math.Sqrt(2*float64(dof)) + 5
	if chi2 > crit {
		t.Fatalf("first-token marginal deviates from target: chi2=%.1f dof=%d crit=%.1f", chi2, dof, crit)
	}
}

// TestStochasticLosslessnessWithBias checks exactness also holds when the
// target has a logit bias the drafter does not know about.
func TestStochasticLosslessnessWithBias(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(7))
	prompt := testPrompt(tk, rng)
	bias := map[int]float32{tk.Eos(): -4, tk.Wait(): 2}

	vocab := tk.VocabSize()
	want := make([]float32, vocab)
	lm.Probs(model.Context{Tokens: prompt, PromptLen: len(prompt)}, bias, 0.9, want)

	eng := &Engine{Target: lm, Temp: 0.9, Bias: bias, EosID: tk.Eos()}
	p := Params{DraftDepth: 4, TopK: 2, TokensToVerify: 8}
	const n = 30000
	counts := make([]int, vocab)
	for i := 0; i < n; i++ {
		res := eng.Step(e, prompt, len(prompt), p, rng)
		counts[res.Tokens[0]]++
	}
	for v := 0; v < vocab; v++ {
		exp := float64(want[v])
		got := float64(counts[v]) / n
		if exp > 0.02 && math.Abs(got-exp) > 0.25*exp+0.01 {
			t.Fatalf("token %s: frequency %.4f, want %.4f", tk.Token(v), got, exp)
		}
	}
}

func TestAcceptLengthPositive(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(8))
	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	p := Params{DraftDepth: 8, TopK: 4, TokensToVerify: 32}

	var rounds, accepted int
	for trial := 0; trial < 20; trial++ {
		prompt := testPrompt(tk, rng)
		seq := append([]int(nil), prompt...)
		for len(seq)-len(prompt) < 60 {
			res := eng.Step(e, seq, len(prompt), p, rng)
			seq = append(seq, res.Tokens...)
			rounds++
			accepted += res.AcceptLen
			if res.Eos {
				break
			}
		}
	}
	mean := float64(accepted) / float64(rounds)
	if mean < 0.8 {
		t.Fatalf("trained drafter mean accept length %.2f too low", mean)
	}
	t.Logf("mean accept length %.2f over %d rounds", mean, rounds)
}

func TestDeeperDraftsAcceptMore(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(9))
	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}

	meanAccept := func(p Params) float64 {
		r := rand.New(rand.NewSource(10))
		var rounds, acc int
		for trial := 0; trial < 30; trial++ {
			prompt := testPrompt(tk, r)
			seq := append([]int(nil), prompt...)
			for len(seq)-len(prompt) < 40 {
				res := eng.Step(e, seq, len(prompt), p, r)
				seq = append(seq, res.Tokens...)
				rounds++
				acc += res.AcceptLen
				if res.Eos {
					break
				}
			}
		}
		return float64(acc) / float64(rounds)
	}
	_ = rng
	shallow := meanAccept(Params{DraftDepth: 1, TopK: 4, TokensToVerify: 8})
	deep := meanAccept(Params{DraftDepth: 6, TopK: 4, TokensToVerify: 24})
	if deep <= shallow {
		t.Fatalf("deeper drafting should accept more: depth1=%.2f depth6=%.2f", shallow, deep)
	}
}

func TestDraftedNodesBounded(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(11))
	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	p := Params{DraftDepth: 5, TopK: 3, TokensToVerify: 12}
	prompt := testPrompt(tk, rng)
	res := eng.Step(e, prompt, len(prompt), p, rng)
	// Beam drafting bounds the frontier at TopK nodes per depth.
	if res.DraftedNodes > p.DraftDepth*p.TopK {
		t.Fatalf("drafted %d nodes, beam bound is %d", res.DraftedNodes, p.DraftDepth*p.TopK)
	}
	if res.VerifiedTokens > p.TokensToVerify+1 {
		t.Fatalf("verified %d tokens, cap is %d", res.VerifiedTokens, p.TokensToVerify+1)
	}
	if len(res.FrontierPerDepth) > p.DraftDepth {
		t.Fatalf("frontier depths %d exceed draft depth %d", len(res.FrontierPerDepth), p.DraftDepth)
	}
	if res.AcceptLen != len(res.Tokens)-1 && !res.Eos {
		t.Fatalf("AcceptLen %d inconsistent with %d tokens", res.AcceptLen, len(res.Tokens))
	}
}

func TestEosTerminates(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(12))
	// Strong positive EOS bias forces termination quickly.
	eng := &Engine{Target: lm, Temp: 0.9, Bias: map[int]float32{tk.Eos(): 30}, EosID: tk.Eos()}
	p := Params{DraftDepth: 4, TopK: 2, TokensToVerify: 8}
	prompt := testPrompt(tk, rng)
	res := eng.Step(e, prompt, len(prompt), p, rng)
	if !res.Eos {
		t.Fatalf("expected EOS with +30 bias, got %v", res.Tokens)
	}
	// No tokens may follow the EOS.
	for i, tok := range res.Tokens {
		if tok == tk.Eos() && i != len(res.Tokens)-1 {
			t.Fatalf("tokens continue past EOS: %v", res.Tokens)
		}
	}
}

func TestVanillaStepMatchesGenerate(t *testing.T) {
	lm, _, tk := newSetup(t)
	prompt := testPrompt(tk, rand.New(rand.NewSource(13)))
	eng := &Engine{Target: lm, Temp: 0, EosID: tk.Eos()}
	rng := rand.New(rand.NewSource(14))
	tok, _ := eng.VanillaStep(prompt, len(prompt), rng)
	want := model.Generate(lm, prompt, nil, 0, 1, tk.Eos(), rand.New(rand.NewSource(15)))
	if tok != want[len(want)-1] {
		t.Fatalf("VanillaStep greedy token %d != Generate token %d", tok, want[len(want)-1])
	}
}

func TestNGramDrafterWorksInEngine(t *testing.T) {
	lm, _, tk := newSetup(t)
	rng := rand.New(rand.NewSource(16))
	g := draft.NewNGram(tk.VocabSize(), 1, 3)
	// Warm the index with a response from the same prompt.
	prompt := testPrompt(tk, rng)
	warm := model.Generate(lm, prompt, nil, 0.9, 80, tk.Eos(), rng)
	g.Observe(warm, len(prompt))

	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	p := Params{DraftDepth: 4, TopK: 1, TokensToVerify: 4}
	var rounds, acc int
	seq := append([]int(nil), prompt...)
	for len(seq)-len(prompt) < 60 {
		res := eng.Step(g, seq, len(prompt), p, rng)
		seq = append(seq, res.Tokens...)
		rounds++
		acc += res.AcceptLen
		if res.Eos {
			break
		}
	}
	t.Logf("ngram accept length %.2f", float64(acc)/float64(rounds))
	if rounds == 0 {
		t.Fatal("no rounds executed")
	}
}

func TestDefaultsClamped(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(17))
	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	prompt := testPrompt(tk, rng)
	// Zero-valued params must be clamped, not panic.
	res := eng.Step(e, prompt, len(prompt), Params{}, rng)
	if len(res.Tokens) == 0 {
		t.Fatal("clamped step produced no tokens")
	}
}

// pathDrafter proposes exactly one token per call, a fixed function of
// the context length, and records every context it drafts from.
type pathDrafter struct {
	vocab int
	ctxs  [][]int
}

func (d *pathDrafter) tokenAt(pos int) int { return pos % d.vocab }

func (d *pathDrafter) Name() string      { return "path" }
func (d *pathDrafter) Arch() gpu.Arch    { return gpu.Arch{} }
func (d *pathDrafter) FusedHiddens() int { return 0 }

func (d *pathDrafter) Probs(tokens []int, _ int, _ *model.HiddenState, _ float64, dst []float32, _ *model.Scratch) {
	d.ctxs = append(d.ctxs, append([]int(nil), tokens...))
	for i := range dst {
		dst[i] = 0
	}
	dst[d.tokenAt(len(tokens))] = 1
}

// TestDeepDraftSeesWholePath pins that every tree node drafts from its
// whole context — the verified prefix followed by each token on its path
// from the root — however deep the node sits.
func TestDeepDraftSeesWholePath(t *testing.T) {
	lm, _, tk := newSetup(t)
	prompt := testPrompt(tk, rand.New(rand.NewSource(18)))
	d := &pathDrafter{vocab: tk.VocabSize()}
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 80, TopK: 1, TokensToVerify: 80}
	eng.Step(d, prompt, len(prompt), p, rand.New(rand.NewSource(19)))
	if len(d.ctxs) != p.DraftDepth {
		t.Fatalf("drafter called %d times, want one call per depth (%d)", len(d.ctxs), p.DraftDepth)
	}
	for i, ctx := range d.ctxs {
		depth := i + 1
		if want := len(prompt) + depth - 1; len(ctx) != want {
			t.Fatalf("depth %d drafts from %d tokens, want %d", depth, len(ctx), want)
		}
		for pos, tok := range ctx {
			want := d.tokenAt(pos)
			if pos < len(prompt) {
				want = prompt[pos]
			}
			if tok != want {
				t.Fatalf("depth %d: context token %d is %d, want %d", depth, pos, tok, want)
			}
		}
	}
}
