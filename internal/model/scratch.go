package model

import "sync"

// Scratch holds reusable buffers for allocation-free scoring. Engines own
// one Scratch and thread it through every hot-path call so steady-state
// speculation rounds allocate nothing. A Scratch is not safe for
// concurrent use; each goroutine (speculation engine, serving replica)
// owns its own.
type Scratch struct {
	logits  []float32
	probs   []float32
	biasIDs []int
}

// NewScratch returns an empty scratch whose buffers grow lazily on first
// use and are reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// Logits returns the scratch logits buffer resized to n. Contents are
// undefined; callers overwrite it fully. The slice is invalidated by the
// next Logits call on the same scratch.
func (s *Scratch) Logits(n int) []float32 {
	if cap(s.logits) < n {
		s.logits = make([]float32, n)
	}
	return s.logits[:n]
}

// probsBuf returns a second float32 buffer (distinct from Logits) for
// callers that need a probability row alongside logits.
func (s *Scratch) probsBuf(n int) []float32 {
	if cap(s.probs) < n {
		s.probs = make([]float32, n)
	}
	return s.probs[:n]
}

// sortedBiasIDs collects the bias token ids in ascending order into the
// scratch. Ascending application keeps float32 accumulation (and thus
// sampling) deterministic regardless of map iteration order. Insertion
// sort avoids the boxing that sort.Ints would add on a 1-2 entry map.
func (s *Scratch) sortedBiasIDs(bias map[int]float32) []int {
	ids := s.biasIDs[:0]
	for id := range bias {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	s.biasIDs = ids
	return ids
}

// scratchPool backs the scratch-free convenience wrapper Probs and the
// batched scorers called with a nil scratch, so concurrent callers without
// an engine-owned scratch stay allocation-free in steady state.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// scoreInto computes one next-token distribution: hashed features with the
// precomputed prompt hash, table accumulation into logits, bias in
// ascending id order, softmax into dst. Every scoring path (Probs,
// ProbsScratch, ProbsBatch) funnels through this function, so batched and
// sequential scoring are bit-for-bit identical.
func (m *LM) scoreInto(tokens []int, promptHash uint64, biasIDs []int, bias map[int]float32, temp float64, dst, logits []float32) {
	var featBuf [maxFeatures]int
	feats := m.featuresHashed(tokens, promptHash, featBuf[:0])
	m.table.Accumulate(feats, logits)
	for _, id := range biasIDs {
		if id >= 0 && id < len(logits) {
			logits[id] += bias[id]
		}
	}
	Softmax(logits, temp, dst)
}

// ProbsScratch computes the next-token distribution like Probs, using
// caller-owned scratch so the call is allocation-free.
func (m *LM) ProbsScratch(ctx Context, bias map[int]float32, temp float64, dst []float32, sc *Scratch) {
	ids := sc.sortedBiasIDs(bias)
	logits := sc.Logits(m.cfg.Vocab)
	m.scoreInto(ctx.Tokens, ctx.PromptHash(), ids, bias, temp, dst, logits)
}

// ProbsBatch scores many contexts in one call: the bias id ordering is
// computed once, all rows share one scratch, and consecutive contexts
// with the same prompt prefix share the prompt hash. dst[i] receives the
// distribution for ctxs[i]; every row must have length Vocab. Rows are
// scored with code identical to Probs, so one batched pass emits exactly
// the same float32 values as len(ctxs) sequential Probs calls.
//
// A nil sc borrows a pooled scratch, keeping the call allocation-free in
// steady state.
func (m *LM) ProbsBatch(ctxs []Context, bias map[int]float32, temp float64, dst [][]float32, sc *Scratch) {
	if len(ctxs) != len(dst) {
		panic("model: ProbsBatch rows/contexts length mismatch")
	}
	if sc == nil {
		pooled := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(pooled)
		sc = pooled
	}
	ids := sc.sortedBiasIDs(bias)
	logits := sc.Logits(m.cfg.Vocab)
	var (
		phPrefix []int // previous row's prompt prefix
		havePH   bool
		ph       uint64
	)
	for i, ctx := range ctxs {
		prefix := ctx.Tokens[:min(ctx.PromptLen, len(ctx.Tokens))]
		if !havePH || !samePrompt(prefix, phPrefix) {
			ph = ctx.PromptHash()
			phPrefix, havePH = prefix, true
		}
		m.scoreInto(ctx.Tokens, ph, ids, bias, temp, dst[i], logits)
	}
}

// RowGroup describes one run of consecutive ProbsBatchGrouped rows that
// share a logit bias — in practice, one sequence's row in a
// multi-sequence vanilla decode step. Per-sequence sampling parameters
// (the workload length prior) apply row-block-wise, exactly as a serving
// engine applies per-request logit processors to its slice of a batched
// forward's logits.
type RowGroup struct {
	// N is the number of consecutive rows in the group.
	N int
	// Bias is the logit bias shared by the group (nil for none).
	Bias map[int]float32
}

// ProbsBatchGrouped scores many contexts in one call like ProbsBatch, but
// with a per-group logit bias: groups partition the rows in order, and
// group g's bias applies to its g.N consecutive rows. Rows funnel through
// the same scoreInto as Probs/ProbsScratch/ProbsBatch, so one grouped
// pass emits exactly the float32 values of per-group ProbsBatch calls —
// the property that lets the batched cross-request decode step of
// continuous batching stay bit-identical to per-request scoring.
//
// A nil sc borrows a pooled scratch, keeping the call allocation-free in
// steady state.
func (m *LM) ProbsBatchGrouped(ctxs []Context, groups []RowGroup, temp float64, dst [][]float32, sc *Scratch) {
	if len(ctxs) != len(dst) {
		panic("model: ProbsBatchGrouped rows/contexts length mismatch")
	}
	total := 0
	for _, g := range groups {
		total += g.N
	}
	if total != len(ctxs) {
		panic("model: ProbsBatchGrouped groups do not partition the rows")
	}
	if sc == nil {
		pooled := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(pooled)
		sc = pooled
	}
	logits := sc.Logits(m.cfg.Vocab)
	var (
		phPrefix []int
		havePH   bool
		ph       uint64
	)
	off := 0
	for _, g := range groups {
		ids := sc.sortedBiasIDs(g.Bias)
		for i := off; i < off+g.N; i++ {
			ctx := ctxs[i]
			prefix := ctx.Tokens[:min(ctx.PromptLen, len(ctx.Tokens))]
			if !havePH || !samePrompt(prefix, phPrefix) {
				ph = ctx.PromptHash()
				phPrefix, havePH = prefix, true
			}
			m.scoreInto(ctx.Tokens, ph, ids, g.Bias, temp, dst[i], logits)
		}
		off += g.N
	}
}

// samePrompt reports whether two prompt prefixes are identical, sharing
// the fast path when they alias the same slice. Rows whose contexts live
// in separate buffers never alias, so pointer identity alone would not
// fire there; an element compare is cheaper than re-hashing (prompts are
// short — the hash is over the prompt only, never the full context).
func samePrompt(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// HiddenScratch computes the hidden-state sketch for a context: a fixed
// random projection of the (pre-softmax) logits squashed through tanh,
// which drafters consume the way Eagle consumes target hidden states. It
// uses caller-owned scratch and is allocation-free.
func (m *LM) HiddenScratch(ctx Context, dst []float32, sc *Scratch) {
	m.sketchLogits(ctx, dst, sc)
}

// HiddenProbsScratch computes ctx's hidden sketch into sketch and its
// next-token distribution at temperature 1 into probs from one logits
// accumulation. The values equal HiddenScratch's and ProbsScratch's with
// a nil bias.
func (m *LM) HiddenProbsScratch(ctx Context, sketch, probs []float32, sc *Scratch) {
	Softmax(m.sketchLogits(ctx, sketch, sc), 1, probs)
}

// sketchLogits accumulates ctx's logits into sc, projects them into the
// hidden sketch dst and returns them.
func (m *LM) sketchLogits(ctx Context, dst []float32, sc *Scratch) []float32 {
	if len(dst) != HiddenDim {
		panic("model: hidden buffer has wrong length")
	}
	logits := sc.Logits(m.cfg.Vocab)
	var featBuf [maxFeatures]int
	feats := m.featuresHashed(ctx.Tokens, ctx.PromptHash(), featBuf[:0])
	m.table.Accumulate(feats, logits)
	for d := 0; d < HiddenDim; d++ {
		row := m.proj[d][:len(logits)]
		// Four accumulator lanes break the dependent-FMA chain of the
		// projection dot product (the hidden sketch is computed once per
		// speculation round and was a visible slice of round time).
		var s0, s1, s2, s3 float32
		v := 0
		for ; v+4 <= len(logits); v += 4 {
			l := logits[v : v+4 : v+4]
			r := row[v : v+4 : v+4]
			s0 += r[0] * l[0]
			s1 += r[1] * l[1]
			s2 += r[2] * l[2]
			s3 += r[3] * l[3]
		}
		for ; v < len(logits); v++ {
			s0 += row[v] * logits[v]
		}
		dst[d] = tanh32((s0 + s1 + s2 + s3) / float32(m.cfg.Vocab))
	}
	return logits
}
