// Package specdec implements speculative decoding: linear and tree-based
// drafting with lossless verification.
//
// Drafting selects candidate tokens deterministically (top-K of the draft
// distribution, the Eagle-2 style confidence tree). Verification uses the
// chain-rule scheme for deterministic candidate sets: at each tree
// position with candidate set {x_1..x_k} (ordered by draft confidence),
// candidate x_i is accepted with probability
//
//	p(x_i) / (1 - Σ_{j<i} p(x_j))
//
// and if all candidates are rejected the corrective token is sampled from
// the target distribution restricted to non-candidates. The marginal of
// the emitted token is exactly the target distribution p — speculative
// decoding is mathematically lossless, the property the paper depends on
// for lossless RL training. (With temperature 0 the scheme degenerates to
// exact greedy equality.)
//
// The speculation round is the hottest path in the system: an Engine owns
// reusable scratch (draft/verify buffers, per-sequence tree arenas,
// frontier and context slices) so a steady-state round allocates nothing.
// StepBatch is the primary entry — the iteration-level scheduler packs all
// decoding requests of one step through it — and Step is its 1-sequence
// case. For each sequence in turn, StepBatch drafts a tree and verifies it.
//
// # Lazy verification
//
// Chain-rule verification reads only a few target rows: the root
// position, each accepted node, and the position where the walk rejects
// or samples its bonus token. The host scores exactly those rows, one
// target call when the walk reaches a position. The simulated GPU still
// scores the whole kept tree in one batched forward, and
// Result.VerifiedTokens charges that full pass, so virtual time is that of
// a real batched verifier. Every scoring entry of the target funnels
// through the same row code, and a row does not depend on its batch-mates,
// so a lazily scored row is bit-identical to the row a whole-tree pass
// computes; an eager reference in the tests pins this.
//
// StepBatch ≡ Step rests on one drafter invariant: Probs may read and
// mutate only drafter-owned state plus the scratch passed in, never the
// target model or verification state, and drafting consumes no
// randomness. Verification in turn never touches drafter state. Drafting
// sequence i+1 after verifying sequence i therefore drafts the same tree
// a separate Step would, and rngs[i] is drawn from in exactly the order
// per-request Step calls draw. Any future drafter must preserve this, and
// its FusedHiddens must count every hidden layer Probs reads: the drafting
// root computes only those (model.FusedHiddenInto), so a layer read but
// not counted is missing from the state Probs gets.
package specdec

import (
	"math"
	"math/rand"

	"fastrl/internal/draft"
	"fastrl/internal/model"
)

// Params is one speculative-decoding strategy: the MAB "arm".
type Params struct {
	// DraftDepth is the maximum number of sequential drafting steps.
	DraftDepth int
	// TopK is the branching factor of tree drafting (1 = linear).
	TopK int
	// TokensToVerify caps the number of tree nodes sent to the target for
	// verification.
	TokensToVerify int
}

// Equal reports whether two strategies are identical.
func (p Params) Equal(o Params) bool { return p == o }

// Seq describes one sequence in a batched round: the verified tokens so
// far, its prompt length, and its per-sequence sampling controls. The
// drafter does not see the bias, exactly as a deployed drafter would not
// see serving-time logit processors applied to the target.
type Seq struct {
	Tokens    []int
	PromptLen int
	// Bias is an optional per-token logit bias applied to the target (the
	// workload length prior).
	Bias map[int]float32
	// EosID terminates generation when emitted (negative disables).
	EosID int
}

// Result summarises one speculation round for one sequence.
//
// Tokens and FrontierPerDepth alias engine-owned per-sequence scratch:
// they are valid until the next Step/StepBatch/VanillaStep call on the
// same Engine. Callers that retain them across rounds must copy
// (appending into their own slice, as the scheduler does, is a copy).
type Result struct {
	// Tokens are the tokens appended to the sequence: zero or more
	// accepted drafted tokens plus exactly one token sampled from the
	// target's (restricted) distribution. At least one token always lands
	// per round, as in vanilla speculative decoding.
	Tokens []int
	// AcceptLen is the number of accepted drafted tokens (len(Tokens)-1,
	// unless EOS cut the round short).
	AcceptLen int
	// DraftedNodes is the number of drafter forward evaluations spent.
	DraftedNodes int
	// FrontierPerDepth records the tree frontier width at each drafting
	// depth, for drafting cost accounting.
	FrontierPerDepth []int
	// VerifiedTokens is the number of tree positions (the kept nodes plus
	// the root) the simulated GPU scores in its batched verification
	// forward. The host scores only the positions the walk visits.
	VerifiedTokens int
	// Eos reports whether an end-of-sequence token was emitted.
	Eos bool
}

// Engine wraps a target model with sampling settings for speculation.
// An Engine retains scratch buffers across rounds and is not safe for
// concurrent use; every worker (scheduler batch, serving replica) owns
// one.
type Engine struct {
	Target *model.LM
	// Temp is the sampling temperature (0 = greedy).
	Temp float64
	// Bias and EosID are the single-sequence sampling controls consumed by
	// Step/VanillaStep; StepBatch takes them per Seq.
	Bias  map[int]float32
	EosID int

	// sc holds the per-engine scratch reused across rounds; created
	// lazily on first use so zero-value Engines keep working.
	sc *scratch

	// Single-sequence adapters reuse these so Step/VanillaStep stay
	// allocation-free wrappers over the batched entries.
	seq1 [1]Seq
	rng1 [1]*rand.Rand
	out1 [1]Result
	tok1 [1]int
	eos1 [1]bool
}

// node is one drafted token in the speculation tree.
type node struct {
	tok      int
	parent   int // index into nodes; -1 for roots
	depth    int
	pathProb float64 // product of draft probabilities along the path
	qProb    float64 // draft probability of this token at its parent
}

// tree is one sequence's speculation tree, drafted and then walked by
// verification. Every slice grows to its sequence slot's high-water mark
// and is then reused, so steady-state rounds perform zero heap
// allocations.
type tree struct {
	nodes            []node
	frontierPerDepth []int
	seqBuf           []int // verified prefix + growing path/accept suffix

	// Candidate selection output.
	keep []int

	// Kept-tree adjacency (children packed into one arena).
	roots      []int
	childStart []int
	childCount []int
	childArena []int

	accepted []int // emitted tokens (aliased by Result.Tokens)
}

// scratch is the engine's reusable working set shared across the
// sequences of a batched round: transient compute buffers plus the
// per-sequence-slot trees and the vanilla step's packed scoring arenas.
type scratch struct {
	msc    *model.Scratch
	hidden model.HiddenState // drafting-root hidden state
	deep   model.HiddenState // rank-free view for deeper draft indices

	qBuf []float32 // draft proposal distribution
	pBuf []float32 // target row at the position verification visits

	frontier, next []int
	topk           []int

	// The draft-side bias of the round being drafted: each in-vocabulary
	// biased token and its factor exp(bias/temp).
	biasF []draftFactor

	// Candidate selection: the path probabilities of t.keep's nodes, then
	// the sort-and-chain walk's buffers.
	keepVals []float64
	order    []int
	member   []bool
	chain    []int

	sorted []int // verifyNode candidate ordering

	// Per-sequence-slot trees (slot i serves the i-th sequence of every
	// batched call; slots persist so their arenas amortise).
	trees []*tree

	// Packed scoring for VanillaStepBatch: one context, probability row
	// and RowGroup per sequence, scored in a single ProbsBatchGrouped
	// pass.
	ctxs     []model.Context
	groups   []model.RowGroup
	rows     [][]float32
	rowArena []float32
}

func (e *Engine) scratchInit() *scratch {
	if e.sc == nil {
		e.sc = &scratch{msc: model.NewScratch()}
	}
	return e.sc
}

// treesFor returns n per-sequence tree slots, growing the slot list only
// past its high-water mark.
func (sc *scratch) treesFor(n int) []*tree {
	for len(sc.trees) < n {
		sc.trees = append(sc.trees, &tree{})
	}
	return sc.trees[:n]
}

func ensureF32(b []float32, n int) []float32 {
	if cap(b) < n {
		return make([]float32, n)
	}
	return b[:n]
}

func ensureInt(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// growthSlack is the per-sequence headroom (in tokens) reserved on top of
// exact need when a growth-coupled scratch buffer reallocates: sequences
// lengthen every round, so exact-fit growth would allocate once per round
// in perpetuity. 1024 tokens of headroom amortise reallocation to once
// per ~dozens-of-rounds while costing a few KB per inflight sequence.
const growthSlack = 1024

func clampParams(p Params) Params {
	if p.DraftDepth < 1 {
		p.DraftDepth = 1
	}
	if p.TopK < 1 {
		p.TopK = 1
	}
	if p.TokensToVerify < 1 {
		p.TokensToVerify = 1
	}
	return p
}

// StepBatch performs one draft-and-verify round for every sequence under
// one strategy — the iteration-level unit of continuous batching, where
// the scheduler packs all decoding requests of a step into one batched
// verification forward of the simulated GPU.
//
// Sequences run in order: sequence i's tree is drafted against the
// drafter's current state (one batched draft pass per step, as a real
// batched drafter forward would) and then verified, drawing from rngs[i]
// and scoring only the positions the walk visits (see the package doc).
// Because drafting consumes no randomness, a shared rng in every slot
// reproduces the draw order of sequential per-request Step calls exactly,
// and per-sequence rngs make each sequence's stream independent of batch
// composition (frozen drafters) — the property the scheduler's
// run-to-completion-equivalence tests pin.
//
// out[i] receives sequence i's result; Result slices alias per-slot
// scratch valid until the next round on this Engine.
func (e *Engine) StepBatch(d draft.Drafter, seqs []Seq, p Params, rngs []*rand.Rand, out []Result) {
	if len(seqs) != len(rngs) || len(seqs) != len(out) {
		panic("specdec: StepBatch seqs/rngs/out length mismatch")
	}
	if len(seqs) == 0 {
		return
	}
	p = clampParams(p)
	trees := e.scratchInit().treesFor(len(seqs))
	for i := range seqs {
		out[i] = Result{}
		e.draftTreeInto(trees[i], d, seqs[i].Tokens, seqs[i].PromptLen, seqs[i].Bias, p, &out[i])
		e.verifyTree(trees[i], seqs[i], rngs[i], &out[i])
	}
}

// Step performs one draft-and-verify round for a single sequence: the
// 1-sequence case of StepBatch, using the engine-level Bias/EosID.
func (e *Engine) Step(d draft.Drafter, tokens []int, promptLen int, p Params, rng *rand.Rand) Result {
	e.seq1[0] = Seq{Tokens: tokens, PromptLen: promptLen, Bias: e.Bias, EosID: e.EosID}
	e.rng1[0] = rng
	e.StepBatch(d, e.seq1[:], p, e.rng1[:], e.out1[:])
	e.seq1[0] = Seq{} // drop the caller's slice reference
	e.rng1[0] = nil
	return e.out1[0]
}

// draftTreeInto runs the drafting stage and ancestry-closed candidate
// selection for one sequence into its tree, which verification then
// walks.
func (e *Engine) draftTreeInto(t *tree, d draft.Drafter, tokens []int, promptLen int, bias map[int]float32, p Params, res *Result) {
	sc := e.sc
	vocab := e.Target.Config().Vocab
	rootCtx := model.Context{Tokens: tokens, PromptLen: promptLen}
	// Only the layers the drafter reads: none for model-free drafters,
	// the root's top tokens for Eagle, and fused sketches for Eagle-3.
	hidden := model.FusedHiddenInto(e.Target, rootCtx, d.FusedHiddens(), &sc.hidden, sc.msc)
	deep := hidden
	if hidden != nil {
		sc.deep.Sketch = hidden.Sketch
		sc.deep.TopTokens = nil
		deep = &sc.deep
	}
	sc.qBuf = ensureF32(sc.qBuf, vocab)

	// The sequence grows a few tokens every round, so exact-fit growth
	// would reallocate once per round forever; headroom keeps steady-state
	// rounds allocation-free until the sequence outgrows the reserve.
	need := len(tokens) + p.DraftDepth + 2
	if cap(t.seqBuf) < need {
		t.seqBuf = make([]int, 0, need+growthSlack)
	}
	t.seqBuf = append(t.seqBuf[:0], tokens...)

	biased := sc.draftBiasFactors(bias, e.draftTemp(), vocab)

	t.nodes = t.nodes[:0]
	t.frontierPerDepth = t.frontierPerDepth[:0]
	sc.frontier = append(sc.frontier[:0], -1) // -1 denotes the root context
	for depth := 1; depth <= p.DraftDepth && len(sc.frontier) > 0; depth++ {
		t.frontierPerDepth = append(t.frontierPerDepth, len(sc.frontier))
		sc.next = sc.next[:0]
		for _, pi := range sc.frontier {
			ctx := pathContext(t.nodes, pi, t.seqBuf[:len(tokens)])
			// Drafting state: at the root the drafter sees the target's
			// hidden state exactly; deeper nodes draft in the rank-free
			// mode the drafter was trained for via rank dropout (the root
			// hidden state does not describe deeper positions).
			h := hidden
			if pi >= 0 {
				h = deep
			}
			d.Probs(ctx, promptLen, h, e.draftTemp(), sc.qBuf, sc.msc)
			if biased {
				applyDraftBias(sc.qBuf, sc.biasF)
			}
			res.DraftedNodes++
			parentProb := 1.0
			if pi >= 0 {
				parentProb = t.nodes[pi].pathProb
			}
			kept := 0
			sc.topk = model.TopKInto(sc.qBuf, p.TopK, sc.topk)
			for _, tok := range sc.topk {
				if kept >= p.TopK {
					break
				}
				qp := float64(sc.qBuf[tok])
				if qp <= 0 {
					continue
				}
				kept++
				ni := len(t.nodes)
				t.nodes = append(t.nodes, node{
					tok:      tok,
					parent:   pi,
					depth:    depth,
					pathProb: parentProb * qp,
					qProb:    qp,
				})
				sc.next = append(sc.next, ni)
			}
		}
		// Depth-limited beam: only the TopK highest-path-probability nodes
		// expand further, bounding drafting cost (Eagle-2 dynamic trees).
		if len(sc.next) > p.TopK {
			topByPathProb(sc.next, p.TopK, t.nodes)
			sc.next = sc.next[:p.TopK]
		}
		sc.frontier, sc.next = sc.next, sc.frontier
	}
	res.FrontierPerDepth = t.frontierPerDepth

	// Candidate selection: keep the TokensToVerify highest-confidence
	// nodes, closed under ancestry so every kept node's parent is kept.
	keep := sc.selectKeptInto(t, p.TokensToVerify)
	t.buildAdjacency(keep)
	// The simulated GPU scores every kept node plus the root position in
	// one batched forward, whichever rows the walk ends up reading.
	res.VerifiedTokens = len(keep) + 1
}

// buildAdjacency packs the kept nodes' child lists into one arena,
// preserving keep order (the order the old per-node append produced).
func (t *tree) buildAdjacency(keep []int) {
	n := len(t.nodes)
	t.childStart = ensureInt(t.childStart, n)
	t.childCount = ensureInt(t.childCount, n)
	for i := 0; i < n; i++ {
		t.childCount[i] = 0
	}
	t.roots = t.roots[:0]
	for _, ni := range keep {
		if par := t.nodes[ni].parent; par < 0 {
			t.roots = append(t.roots, ni)
		} else {
			t.childCount[par]++
		}
	}
	off := 0
	for i := 0; i < n; i++ {
		t.childStart[i] = off
		off += t.childCount[i]
		t.childCount[i] = 0 // reused as the fill cursor below
	}
	t.childArena = ensureInt(t.childArena, off)
	for _, ni := range keep {
		if par := t.nodes[ni].parent; par >= 0 {
			t.childArena[t.childStart[par]+t.childCount[par]] = ni
			t.childCount[par]++
		}
	}
}

// childrenOf returns the kept children of a kept node.
func (t *tree) childrenOf(ni int) []int {
	s := t.childStart[ni]
	return t.childArena[s : s+t.childCount[ni]]
}

// verifyTree walks one drafted tree with chain-rule rejection sampling,
// drawing from rng. It scores a position only when the walk reaches it:
// the root, each accepted node, and the position where the walk rejects
// or, below the deepest accepted node (whose child list is empty), samples
// the bonus token. Accepted tokens extend the verified prefix in
// t.seqBuf, whose capacity covers DraftDepth+2 more tokens.
func (e *Engine) verifyTree(t *tree, seq Seq, rng *rand.Rand, res *Result) {
	sc := e.sc
	sc.pBuf = ensureF32(sc.pBuf, e.Target.Config().Vocab)
	t.accepted = t.accepted[:0]
	ctx := t.seqBuf[:len(seq.Tokens)]
	candidates := t.roots
	for {
		e.Target.ProbsScratch(model.Context{Tokens: ctx, PromptLen: seq.PromptLen}, seq.Bias, e.Temp, sc.pBuf, sc.msc)
		chosen, corrective := verifyNodeBuf(sc.pBuf, t.nodes, candidates, &sc.sorted, rng)
		if chosen < 0 {
			t.accepted = append(t.accepted, corrective)
			res.Eos = seq.EosID >= 0 && corrective == seq.EosID
			break
		}
		tok := t.nodes[chosen].tok
		t.accepted = append(t.accepted, tok)
		res.AcceptLen++
		if seq.EosID >= 0 && tok == seq.EosID {
			res.Eos = true
			break
		}
		ctx = append(ctx, tok)
		candidates = t.childrenOf(chosen)
	}
	res.Tokens = t.accepted
}

// draftFactor is one biased token of a draft proposal and the factor
// exp(bias/temp) its probability is multiplied by.
type draftFactor struct {
	id int
	f  float32
}

// draftBiasFactors computes the round's draft-side bias factors into the
// scratch, once for every node the round drafts, and reports whether the
// round's proposals are reweighted: a non-empty bias renormalises them
// even when none of its ids is in the vocabulary. The ids are distinct,
// so the order the map yields them in cannot change any product.
func (sc *scratch) draftBiasFactors(bias map[int]float32, temp float64, vocab int) bool {
	sc.biasF = sc.biasF[:0]
	for id, b := range bias {
		if id >= 0 && id < vocab {
			sc.biasF = append(sc.biasF, draftFactor{id, float32(mathExp(float64(b) / temp))})
		}
	}
	return len(bias) > 0
}

// applyDraftBias reweights a draft proposal by the sequence's logit bias,
// mirroring how serving engines apply sampling parameters to the draft
// model as well as the target. Since the drafter emits probabilities, the
// bias is folded in multiplicatively, q'(v) ∝ q(v)·exp(bias_v/temp), with
// the factors draftBiasFactors computed, and q is renormalised by its
// float64 sum in index order. Verification does not depend on q, so
// exactness is unaffected — this only improves candidate selection.
func applyDraftBias(q []float32, factors []draftFactor) {
	for _, bf := range factors {
		q[bf.id] *= bf.f
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

// draftTemp returns the temperature the drafter proposes at. Greedy target
// decoding still drafts at a mild temperature so confidence ordering is
// informative; verification keeps the output exact.
func (e *Engine) draftTemp() float64 {
	if e.Temp <= 0 {
		return 1
	}
	return e.Temp
}

// pathContext returns the context node ni drafts from: buf, the verified
// prefix, followed by every token on the path from the root to ni. The
// path tokens are written by depth into buf's spare capacity, so the
// context is complete at any depth.
func pathContext(nodes []node, ni int, buf []int) []int {
	if ni < 0 {
		return buf
	}
	ctx := buf[:len(buf)+nodes[ni].depth]
	for k := ni; k >= 0; k = nodes[k].parent {
		ctx[len(buf)+nodes[k].depth-1] = nodes[k].tok
	}
	return ctx
}

// sortByPathProb orders node indices by descending path probability with
// an ascending-index tie-break — a deterministic total order, so every
// caller builds the identical tree.
// Insertion sort: the slices are small (at most the beam width or node
// count) and this avoids the interface boxing of sort.Slice.
func sortByPathProb(idx []int, nodes []node) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		pv := nodes[v].pathProb
		j := i
		for j > 0 {
			u := idx[j-1]
			if nodes[u].pathProb > pv || (nodes[u].pathProb == pv && u < v) {
				break
			}
			idx[j] = u
			j--
		}
		idx[j] = v
	}
}

// topByPathProb moves the k highest-path-probability nodes of idx to
// idx[:k], in the total order sortByPathProb uses (descending probability,
// ascending-index ties); the order of the rest of idx is unspecified. The
// beam trim keeps only those k, so no full sort is needed: up to eight it
// keeps them in a bounded insertion buffer, and for a larger k or a NaN
// path probability it makes k selection passes.
func topByPathProb(idx []int, k int, nodes []node) {
	if k > 8 || !topByPathProbBuf(idx, k, nodes) {
		topByPathProbPasses(idx, k, nodes)
	}
}

// topByPathProbBuf is topByPathProb for k up to 8 by one scan with an
// insertion buffer, the path probabilities held beside the indices. It
// leaves idx untouched and reports false on a NaN, where the order is not
// total.
func topByPathProbBuf(idx []int, k int, nodes []node) bool {
	if k <= 0 {
		return true
	}
	var top [8]int
	var vals [8]float64
	n := 0
	for _, ni := range idx {
		pp := nodes[ni].pathProb
		if pp != pp {
			return false
		}
		if n == k {
			if pp < vals[k-1] || pp == vals[k-1] && ni > top[k-1] {
				continue
			}
			n--
		}
		j := n
		for ; j > 0 && (vals[j-1] < pp || vals[j-1] == pp && top[j-1] > ni); j-- {
			top[j], vals[j] = top[j-1], vals[j-1]
		}
		top[j], vals[j] = ni, pp
		n++
	}
	copy(idx, top[:n])
	return true
}

// topByPathProbPasses is topByPathProb by k passes, each swapping the best
// of the rest of idx into place.
func topByPathProbPasses(idx []int, k int, nodes []node) {
	for i := 0; i < k && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			a, b := idx[j], idx[best]
			if nodes[a].pathProb > nodes[b].pathProb ||
				(nodes[a].pathProb == nodes[b].pathProb && a < b) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
}

// sortByQProb orders node indices by descending draft probability with an
// ascending-index tie-break (see sortByPathProb).
func sortByQProb(idx []int, nodes []node) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		qv := nodes[v].qProb
		j := i
		for j > 0 {
			u := idx[j-1]
			if nodes[u].qProb > qv || (nodes[u].qProb == qv && u < v) {
				break
			}
			idx[j] = u
			j--
		}
		idx[j] = v
	}
}

// selectKeptInto fills t.keep with the indices of up to k of the tree's
// nodes with the highest path probability, closed under ancestry, using
// the scratch's shared selection buffers.
//
// A drafted node's path probability is its parent's times q ≤ 1, and the
// parent has the smaller index, so in sortByPathProb's order every parent
// comes before its children. The first k nodes in that order are then
// ancestry-closed, and they are exactly what the sort-and-chain walk keeps,
// one node per step: selectTop finds them in one pass without a sort. The
// walk stays for a tree in which a node outranks its parent, which the
// bias renormalisation could make by rounding q above 1, or which holds a
// NaN.
func (sc *scratch) selectKeptInto(t *tree, k int) []int {
	t.keep = t.keep[:0]
	if k <= 0 || len(t.nodes) == 0 || sc.selectTop(t, k) {
		return t.keep
	}
	return sc.selectByWalk(t, k)
}

// selectTop writes the first k nodes in sortByPathProb's order to t.keep,
// in that order, by one scan in index order with a bounded insertion
// buffer, and reports true. It reports false, with t.keep unspecified,
// when a path probability is NaN or above its parent's.
func (sc *scratch) selectTop(t *tree, k int) bool {
	nodes := t.nodes
	keep, vals := t.keep[:0], sc.keepVals[:0]
	ok := true
	for i := range nodes {
		pp := nodes[i].pathProb
		if par := nodes[i].parent; par >= 0 && !(pp <= nodes[par].pathProb) || pp != pp {
			ok = false
			break
		}
		if len(keep) == k {
			// A later index loses a tie, so an equal value stays out.
			if pp <= vals[k-1] {
				continue
			}
			keep, vals = keep[:k-1], vals[:k-1]
		}
		j := len(keep)
		keep, vals = append(keep, i), append(vals, pp)
		for ; j > 0 && vals[j-1] < pp; j-- {
			keep[j], vals[j] = keep[j-1], vals[j-1]
		}
		keep[j], vals[j] = i, pp
	}
	t.keep, sc.keepVals = keep, vals
	return ok
}

// selectByWalk is the general selection: it sorts every node by
// sortByPathProb and walks that order, adding each node together with
// its ancestors not yet kept while they fit in k.
func (sc *scratch) selectByWalk(t *tree, k int) []int {
	nodes := t.nodes
	t.keep = t.keep[:0]
	sc.order = ensureInt(sc.order, len(nodes))
	for i := range sc.order {
		sc.order[i] = i
	}
	sortByPathProb(sc.order, nodes)
	if cap(sc.member) < len(nodes) {
		sc.member = make([]bool, len(nodes))
	}
	member := sc.member[:len(nodes)]
	for i := range member {
		member[i] = false
	}
	for _, ni := range sc.order {
		if len(t.keep) >= k {
			break
		}
		// Adding ni requires its uncovered ancestors too.
		sc.chain = sc.chain[:0]
		for i := ni; i >= 0 && !member[i]; i = nodes[i].parent {
			sc.chain = append(sc.chain, i)
		}
		if len(t.keep)+len(sc.chain) > k {
			continue
		}
		for _, i := range sc.chain {
			member[i] = true
			t.keep = append(t.keep, i)
		}
	}
	return t.keep
}

// verifyNodeBuf runs chain-rule verification at one tree position. p is
// the target distribution at the position (mutated in the all-rejected
// case); candidates the drafted children (distinct tokens). Candidate x_i
// (in draft-confidence order) is accepted with probability
// p(x_i)/(1 - Σ_{j<i} p(x_j)); if all are rejected the corrective token
// is sampled from p restricted to non-candidates. The marginal over
// emitted tokens is exactly p. sortBuf is caller-owned scratch for the
// confidence ordering.
func verifyNodeBuf(p []float32, nodes []node, candidates []int, sortBuf *[]int, rng *rand.Rand) (chosenNode int, corrective int) {
	if len(candidates) == 0 {
		return -1, model.SampleProbs(p, rng)
	}
	sorted := append((*sortBuf)[:0], candidates...)
	*sortBuf = sorted
	sortByQProb(sorted, nodes)
	remaining := 1.0
	for _, ci := range sorted {
		tok := nodes[ci].tok
		px := float64(p[tok])
		if remaining <= 0 {
			break
		}
		if rng.Float64()*remaining < px {
			return ci, 0
		}
		remaining -= px
		p[tok] = 0 // exclude from the corrective distribution
	}
	// All rejected: sample from p restricted to non-candidates. The
	// candidate entries were zeroed above; SampleProbs tolerates the
	// unnormalised remainder via explicit renormalisation.
	var sum float64
	for _, pv := range p {
		sum += float64(pv)
	}
	if sum <= 0 {
		// Target mass was entirely on candidates yet all were rejected —
		// impossible mathematically, reachable only through float
		// round-off. Fall back to the most confident candidate.
		return sorted[0], 0
	}
	inv := float32(1 / sum)
	for v := range p {
		p[v] *= inv
	}
	return -1, model.SampleProbs(p, rng)
}

// verifyNode is verifyNodeBuf with private scratch (test/reference entry).
func verifyNode(p []float32, nodes []node, candidates []int, rng *rand.Rand) (chosenNode int, corrective int) {
	var buf []int
	return verifyNodeBuf(p, nodes, candidates, &buf, rng)
}

// VanillaStepBatch performs one ordinary (non-speculative) decode step for
// every sequence: all rows are scored in a single grouped batched pass and
// sampled in sequence order from the per-sequence RNGs. outTok[i] and
// outEos[i] receive sequence i's sampled token and EOS flag. Rows are
// scored with code identical to the sequential path, so a shared rng in
// every slot reproduces per-request VanillaStep calls exactly.
func (e *Engine) VanillaStepBatch(seqs []Seq, rngs []*rand.Rand, outTok []int, outEos []bool) {
	if len(seqs) != len(rngs) || len(seqs) != len(outTok) || len(seqs) != len(outEos) {
		panic("specdec: VanillaStepBatch seqs/rngs/out length mismatch")
	}
	if len(seqs) == 0 {
		return
	}
	sc := e.scratchInit()
	vocab := e.Target.Config().Vocab
	sc.rowArena = ensureF32(sc.rowArena, len(seqs)*vocab)
	sc.rows = sc.rows[:0]
	sc.ctxs = sc.ctxs[:0]
	sc.groups = sc.groups[:0]
	for i, s := range seqs {
		sc.rows = append(sc.rows, sc.rowArena[i*vocab:(i+1)*vocab])
		sc.ctxs = append(sc.ctxs, model.Context{Tokens: s.Tokens, PromptLen: s.PromptLen})
		sc.groups = append(sc.groups, model.RowGroup{N: 1, Bias: s.Bias})
	}
	e.Target.ProbsBatchGrouped(sc.ctxs, sc.groups, e.Temp, sc.rows, sc.msc)
	for i, s := range seqs {
		tok := model.SampleProbs(sc.rows[i], rngs[i])
		outTok[i] = tok
		outEos[i] = s.EosID >= 0 && tok == s.EosID
	}
	// Drop caller slice references: unlike the tree path (which copies
	// tokens into engine-owned arenas), these contexts alias the callers'
	// token storage, and truncation alone would keep it reachable.
	for i := range sc.ctxs {
		sc.ctxs[i] = model.Context{}
	}
	sc.ctxs = sc.ctxs[:0]
}

// VanillaStep performs one ordinary (non-speculative) decode step,
// returning the sampled token: the 1-sequence case of VanillaStepBatch,
// using the engine-level Bias/EosID. It exists so engines share sampling
// semantics between SD and non-SD paths.
func (e *Engine) VanillaStep(tokens []int, promptLen int, rng *rand.Rand) (int, bool) {
	e.seq1[0] = Seq{Tokens: tokens, PromptLen: promptLen, Bias: e.Bias, EosID: e.EosID}
	e.rng1[0] = rng
	e.VanillaStepBatch(e.seq1[:], e.rng1[:], e.tok1[:], e.eos1[:])
	e.seq1[0] = Seq{}
	e.rng1[0] = nil
	return e.tok1[0], e.eos1[0]
}

func mathExp(x float64) float64 {
	if x > 30 {
		x = 30
	}
	if x < -30 {
		x = -30
	}
	return math.Exp(x)
}
