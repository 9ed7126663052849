package specdec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fastrl/internal/draft"
	"fastrl/internal/model"
)

// TestStepStructuralInvariants drives random strategies through the
// speculation engine and checks structural invariants of every round:
//   - at least one token is always emitted
//   - the accepted count never exceeds the drafted depth
//   - drafted nodes respect the beam bound depth*topK
//   - verified tokens respect TokensToVerify+1
//   - no token follows an EOS
func TestStepStructuralInvariants(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(31))
	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	for trial := 0; trial < 300; trial++ {
		p := Params{
			DraftDepth:     1 + rng.Intn(12),
			TopK:           1 + rng.Intn(8),
			TokensToVerify: 1 + rng.Intn(64),
		}
		prompt := testPrompt(tk, rng)
		seq := append([]int(nil), prompt...)
		res := eng.Step(e, seq, len(prompt), p, rng)

		if len(res.Tokens) == 0 {
			t.Fatalf("trial %d (%+v): no tokens emitted", trial, p)
		}
		if res.AcceptLen > p.DraftDepth {
			t.Fatalf("trial %d (%+v): accepted %d > depth", trial, p, res.AcceptLen)
		}
		if res.AcceptLen > len(res.Tokens) {
			t.Fatalf("trial %d (%+v): accept len %d > emitted %d", trial, p, res.AcceptLen, len(res.Tokens))
		}
		if res.DraftedNodes > p.DraftDepth*p.TopK {
			t.Fatalf("trial %d (%+v): drafted %d nodes", trial, p, res.DraftedNodes)
		}
		if res.VerifiedTokens > p.TokensToVerify+1 {
			t.Fatalf("trial %d (%+v): verified %d tokens", trial, p, res.VerifiedTokens)
		}
		for i, tok := range res.Tokens {
			if tok < 0 || tok >= tk.VocabSize() {
				t.Fatalf("trial %d: invalid token %d", trial, tok)
			}
			if tok == tk.Eos() && i != len(res.Tokens)-1 {
				t.Fatalf("trial %d: token after EOS: %v", trial, res.Tokens)
			}
		}
		if len(res.FrontierPerDepth) > p.DraftDepth {
			t.Fatalf("trial %d: frontier depth %d", trial, len(res.FrontierPerDepth))
		}
		for _, w := range res.FrontierPerDepth {
			if w < 1 || w > p.TopK {
				t.Fatalf("trial %d: frontier width %d outside [1,%d]", trial, w, p.TopK)
			}
		}
	}
}

// TestSelectNodesAncestryClosure exercises the tree-selection helper on
// random trees: every selected node's ancestors must also be selected and
// the budget respected.
func TestSelectNodesAncestryClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		nodes := make([]node, n)
		for i := range nodes {
			parent := -1
			if i > 0 && rng.Float64() < 0.8 {
				parent = rng.Intn(i)
			}
			pp := 1.0
			if parent >= 0 {
				pp = nodes[parent].pathProb
			}
			nodes[i] = node{
				tok:      rng.Intn(50),
				parent:   parent,
				pathProb: pp * (0.1 + 0.9*rng.Float64()),
			}
		}
		k := 1 + rng.Intn(20)
		keep := selectNodes(nodes, k)
		if len(keep) > k {
			t.Fatalf("trial %d: selected %d > budget %d", trial, len(keep), k)
		}
		chosen := map[int]bool{}
		for _, ni := range keep {
			chosen[ni] = true
		}
		for _, ni := range keep {
			for p := nodes[ni].parent; p >= 0; p = nodes[p].parent {
				if !chosen[p] {
					t.Fatalf("trial %d: node %d selected without ancestor %d", trial, ni, p)
				}
			}
		}
	}
}

// selectNodes returns the indices of up to k nodes with the highest path
// probability, closed under ancestry: an allocating wrapper over the
// engine's scratch-based selection.
func selectNodes(nodes []node, k int) []int {
	sc := &scratch{}
	t := &tree{nodes: nodes}
	return append([]int(nil), sc.selectKeptInto(t, k)...)
}

// randomTree draws a tree of n nodes in drafting order, each parent
// before its children. Path probabilities are the parent's times q drawn
// from a few values, so equal ones are common. With outrank set, some
// children get q just above 1 and outrank their parent, and with nan some
// nodes get a NaN path probability.
func randomTree(rng *rand.Rand, n int, outrank, nan bool) []node {
	qs := []float64{1, 0.5, 0.5, 0.25, 0.75, 0.125}
	nodes := make([]node, n)
	for i := range nodes {
		parent := -1
		if i > 0 && rng.Float64() < 0.85 {
			parent = rng.Intn(i)
		}
		pp := 1.0
		if parent >= 0 {
			pp = nodes[parent].pathProb
		}
		q := qs[rng.Intn(len(qs))]
		if outrank && rng.Intn(8) == 0 {
			q = 1 + 1e-9
		}
		nodes[i] = node{tok: rng.Intn(50), parent: parent, pathProb: pp * q}
		if nan && rng.Intn(20) == 0 {
			nodes[i].pathProb = math.NaN()
		}
	}
	return nodes
}

// TestSelectTopMatchesWalk: the one-pass selection selectKeptInto takes
// when no node outranks its parent keeps exactly the nodes, in exactly the
// order, of the sort-and-chain walk it replaced, on random trees with
// equal path probabilities, with n both below and above k, and with k
// from -2 up. Trees in which a child outranks its parent, or with a NaN,
// must take the walk itself, and the test checks both paths run.
func TestSelectTopMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var fast, fallback int
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(70)
		nodes := randomTree(rng, n, trial%3 == 1, trial%3 == 2)
		k := rng.Intn(n+8) - 2
		got := selectNodes(nodes, k)
		want := append([]int(nil), (&scratch{}).selectByWalk(&tree{nodes: nodes}, k)...)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d, k %d): selection %v, walk %v", trial, n, k, got, want)
		}
		if k > 0 && n > 0 {
			if (&scratch{}).selectTop(&tree{nodes: nodes}, k) {
				fast++
			} else {
				fallback++
			}
		}
	}
	if fast == 0 || fallback == 0 {
		t.Fatalf("one-pass selection ran %d times and the walk %d: both paths must run", fast, fallback)
	}
	t.Logf("one-pass selection %d trees, walk %d", fast, fallback)
}

// TestTopByPathProbMatchesPasses: the beam trim's bounded buffer puts the
// same k nodes, in the same order, at the front of a frontier as k
// selection passes do, on random frontiers in random order with equal
// path probabilities and NaNs, for k from 1 to 12.
func TestTopByPathProbMatchesPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 3000; trial++ {
		nodes := randomTree(rng, 1+rng.Intn(60), false, trial%4 == 3)
		idx := rng.Perm(len(nodes))[:1+rng.Intn(len(nodes))]
		k := 1 + rng.Intn(12)
		got := append([]int(nil), idx...)
		want := append([]int(nil), idx...)
		topByPathProb(got, k, nodes)
		topByPathProbPasses(want, k, nodes)
		m := min(k, len(idx))
		if !slices.Equal(got[:m], want[:m]) {
			t.Fatalf("trial %d (k %d of %d): beam trim %v, passes %v", trial, k, len(idx), got[:m], want[:m])
		}
	}
}

// TestDraftBiasMatchesPerNode: factors computed once per round reweight a
// draft proposal to the same bits as the per-node loop over the bias map
// they replaced, on random maps with ids outside the vocabulary and maps
// whose ids all are.
func TestDraftBiasMatchesPerNode(t *testing.T) {
	perNode := func(q []float32, bias map[int]float32, temp float64) {
		if len(bias) == 0 {
			return
		}
		for id, b := range bias {
			if id >= 0 && id < len(q) {
				q[id] *= float32(mathExp(float64(b) / temp))
			}
		}
		var sum float64
		for _, v := range q {
			sum += float64(v)
		}
		if sum <= 0 {
			return
		}
		inv := float32(1 / sum)
		for i := range q {
			q[i] *= inv
		}
	}
	rng := rand.New(rand.NewSource(41))
	var sc scratch
	for trial := 0; trial < 2000; trial++ {
		q := make([]float32, 1+rng.Intn(90))
		for i := range q {
			q[i] = float32(rng.ExpFloat64())
		}
		bias := map[int]float32{}
		for n := rng.Intn(6); n > 0; n-- {
			bias[rng.Intn(len(q)+4)-2] = float32(rng.NormFloat64() * 40)
		}
		temp := []float64{1, 0.9, 0.3}[rng.Intn(3)]
		got, want := append([]float32(nil), q...), append([]float32(nil), q...)
		if sc.draftBiasFactors(bias, temp, len(q)) {
			applyDraftBias(got, sc.biasF)
		}
		perNode(want, bias, temp)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("trial %d lane %d (bias %v): %g, per-node %g", trial, i, bias, got[i], want[i])
			}
		}
	}
}

// TestVerifyNodeMarginalProperty: for a random distribution p and random
// candidate sets, the empirical accept+corrective marginal must match p.
func TestVerifyNodeMarginalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const vocab = 12
	for trial := 0; trial < 10; trial++ {
		// Random peaked distribution.
		base := make([]float32, vocab)
		var sum float32
		for v := range base {
			base[v] = float32(rng.ExpFloat64())
			sum += base[v]
		}
		for v := range base {
			base[v] /= sum
		}
		// Random distinct candidates.
		k := 1 + rng.Intn(4)
		perm := rng.Perm(vocab)[:k]
		nodes := make([]node, k)
		cands := make([]int, k)
		for i, tok := range perm {
			nodes[i] = node{tok: tok, qProb: rng.Float64()}
			cands[i] = i
		}
		const n = 60000
		counts := make([]int, vocab)
		for i := 0; i < n; i++ {
			p := append([]float32(nil), base...)
			chosen, corrective := verifyNode(p, nodes, cands, rng)
			if chosen >= 0 {
				counts[nodes[chosen].tok]++
			} else {
				counts[corrective]++
			}
		}
		for v := 0; v < vocab; v++ {
			got := float64(counts[v]) / n
			want := float64(base[v])
			if want > 0.01 && absF(got-want) > 0.15*want+0.005 {
				t.Fatalf("trial %d: token %d marginal %.4f, want %.4f", trial, v, got, want)
			}
		}
	}
}

// stepEager is the eager reference for lazy verification: it drafts the
// tree Step drafts, scores the root position and every kept node in one
// ProbsBatch pass, and then walks the tree over those rows.
func stepEager(e *Engine, d draft.Drafter, tokens []int, promptLen int, p Params, rng *rand.Rand) Result {
	t := e.scratchInit().treesFor(1)[0]
	var res Result
	e.draftTreeInto(t, d, tokens, promptLen, e.Bias, clampParams(p), &res)

	ctxs := []model.Context{{Tokens: tokens, PromptLen: promptLen}}
	rowOf := map[int]int{}
	for _, ni := range t.keep {
		buf := make([]int, len(tokens), len(tokens)+t.nodes[ni].depth)
		copy(buf, tokens)
		rowOf[ni] = len(ctxs)
		ctxs = append(ctxs, model.Context{Tokens: pathContext(t.nodes, ni, buf), PromptLen: promptLen})
	}
	rows := make([][]float32, len(ctxs))
	for i := range rows {
		rows[i] = make([]float32, e.Target.Config().Vocab)
	}
	e.Target.ProbsBatch(ctxs, e.Bias, e.Temp, rows, nil)

	row, candidates := rows[0], t.roots
	for {
		chosen, corrective := verifyNode(row, t.nodes, candidates, rng)
		if chosen < 0 {
			res.Tokens = append(res.Tokens, corrective)
			res.Eos = e.EosID >= 0 && corrective == e.EosID
			return res
		}
		tok := t.nodes[chosen].tok
		res.Tokens = append(res.Tokens, tok)
		res.AcceptLen++
		if e.EosID >= 0 && tok == e.EosID {
			res.Eos = true
			return res
		}
		row, candidates = rows[rowOf[chosen]], t.childrenOf(chosen)
	}
}

// TestBatchedMatchesSequential: lazy verification (Step, one target call
// per visited position) must be token-for-token identical to eager
// verification (stepEager, one ProbsBatch pass over the root and every
// kept node up front) under fixed seeds, across random strategies,
// prompts, temperatures and biases — skipping the rows the walk never
// reads must change nothing. Two engines are used so each keeps its own
// scratch; their RNGs start from the same seed each trial.
func TestBatchedMatchesSequential(t *testing.T) {
	lm, e, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 400; trial++ {
		p := Params{
			DraftDepth:     1 + metaRng.Intn(10),
			TopK:           1 + metaRng.Intn(6),
			TokensToVerify: 1 + metaRng.Intn(48),
		}
		temp := 0.0
		if metaRng.Intn(3) > 0 {
			temp = 0.5 + metaRng.Float64()
		}
		var bias map[int]float32
		if metaRng.Intn(3) == 0 {
			bias = map[int]float32{
				tk.Eos():  float32(metaRng.NormFloat64() * 3),
				tk.Wait(): float32(metaRng.NormFloat64() * 3),
			}
		}
		prompt := testPrompt(tk, metaRng)
		seed := metaRng.Int63()

		lazy := &Engine{Target: lm, Temp: temp, Bias: bias, EosID: tk.Eos()}
		eager := &Engine{Target: lm, Temp: temp, Bias: bias, EosID: tk.Eos()}
		// Multi-round: carry each path's own sequence forward so any
		// divergence compounds and is caught.
		lSeq := append([]int(nil), prompt...)
		eSeq := append([]int(nil), prompt...)
		lRng := rand.New(rand.NewSource(seed))
		eRng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			lr := lazy.Step(e, lSeq, len(prompt), p, lRng)
			er := stepEager(eager, e, eSeq, len(prompt), p, eRng)
			if len(lr.Tokens) != len(er.Tokens) {
				t.Fatalf("trial %d round %d (%+v temp=%.2f): lazy %v vs eager %v",
					trial, round, p, temp, lr.Tokens, er.Tokens)
			}
			for i := range lr.Tokens {
				if lr.Tokens[i] != er.Tokens[i] {
					t.Fatalf("trial %d round %d (%+v temp=%.2f): token %d differs: %v vs %v",
						trial, round, p, temp, i, lr.Tokens, er.Tokens)
				}
			}
			if lr.AcceptLen != er.AcceptLen || lr.Eos != er.Eos ||
				lr.DraftedNodes != er.DraftedNodes || lr.VerifiedTokens != er.VerifiedTokens {
				t.Fatalf("trial %d round %d: result metadata diverged: %+v vs %+v", trial, round, lr, er)
			}
			lSeq = append(lSeq, lr.Tokens...)
			eSeq = append(eSeq, er.Tokens...)
			if lr.Eos {
				break
			}
		}
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
