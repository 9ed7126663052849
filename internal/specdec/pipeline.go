package specdec

import (
	"math/rand"
	"runtime"

	"fastrl/internal/draft"
	"fastrl/internal/model"
)

// pipeDepth is the stage-handoff channel capacity. A round with more
// sequences than this still completes — the drafting stage just blocks
// until the scoring stage drains — so the constant bounds buffering, not
// batch size.
const pipeDepth = 64

// pipeMsg hands one drafted (then scored) tree index down the pipeline;
// last marks the round's final sequence so the verify worker can signal
// round completion.
type pipeMsg struct {
	idx  int
	last bool
}

// pipe is the engine's three-stage software pipeline for batched rounds:
// the caller's goroutine drafts, a scoring worker runs each tree's
// grouped target pass with the engine's second model.Scratch (the double
// buffer), and a verify worker walks scored trees strictly in sequence
// order (it owns the round's RNG draws). Workers start with the engine's
// first pipelined round and park on their inbound channel between rounds
// until Close — steady-state rounds allocate nothing. Round state (the seqs/trees/rngs/out slices)
// is published before the first send and cleared after the completion
// signal; every cross-stage access is ordered by a channel happens-before
// edge. See the package comment for the full safety argument.
type pipe struct {
	workCh   chan pipeMsg  // draft -> score
	scoredCh chan pipeMsg  // score -> verify
	doneCh   chan struct{} // verify -> caller, once per round; closed on exit

	mscScore *model.Scratch // scoring stage's model scratch (double buffer)
	sorted   []int          // verify worker's candidate-order scratch

	// Round state, owned by the caller's goroutine outside a round and
	// read by the workers inside one.
	seqs  []Seq
	trees []*tree
	rngs  []*rand.Rand
	out   []Result
}

// usePipeline reports whether a batched round should overlap its stages:
// only when a second CPU can actually run a worker (on a single-CPU
// process the pipeline is pure handoff overhead) and the round has at
// least two sequences (with one there is nothing to overlap). Both paths
// emit bit-identical streams, so the choice is invisible to callers.
func (e *Engine) usePipeline(n int) bool {
	return n >= 2 && runtime.GOMAXPROCS(0) > 1
}

// pipelineFor returns the engine's pipeline, starting its two stage
// workers on first use. The workers are part of the engine's scratch:
// they idle parked on a channel between rounds and hold the engine, and
// everything it references, until Close stops them. An owner that drops
// an engine which may have run a pipelined round must Close it.
func (e *Engine) pipelineFor() *pipe {
	sc := e.sc
	if sc.pipeline == nil {
		pp := &pipe{
			workCh:   make(chan pipeMsg, pipeDepth),
			scoredCh: make(chan pipeMsg, pipeDepth),
			doneCh:   make(chan struct{}, 1),
			mscScore: model.NewScratch(),
		}
		sc.pipeline = pp
		go e.scoreLoop(pp)
		go e.verifyLoop(pp)
	}
	return sc.pipeline
}

// Close stops the pipeline's stage workers and returns once they are
// done: closing the work channel ends scoreLoop, which closes the scored
// channel and so ends verifyLoop, which closes the done channel. It must
// run on the engine-owning goroutine between rounds. Close is idempotent,
// and the engine stays usable: a later pipelined round starts fresh
// workers.
func (e *Engine) Close() {
	if e.sc == nil || e.sc.pipeline == nil {
		return
	}
	pp := e.sc.pipeline
	e.sc.pipeline = nil
	close(pp.workCh)
	<-pp.doneCh
}

// scoreLoop is the scoring stage: one grouped target pass per drafted
// tree, into the tree's private rows, with the stage-owned scratch.
func (e *Engine) scoreLoop(pp *pipe) {
	for m := range pp.workCh {
		e.scoreTreeInto(pp.trees[m.idx], pp.seqs[m.idx], pp.mscScore)
		pp.scoredCh <- m
	}
	close(pp.scoredCh)
}

// verifyLoop is the verification stage. Trees arrive in sequence order
// (the scoring stage forwards in receipt order over a FIFO channel), so
// RNG draws happen in exactly the serial loop's order.
func (e *Engine) verifyLoop(pp *pipe) {
	for m := range pp.scoredCh {
		t := pp.trees[m.idx]
		e.verifyTreeRows(t, t.rows, &pp.sorted, pp.seqs[m.idx].EosID, pp.rngs[m.idx], &pp.out[m.idx])
		if m.last {
			pp.doneCh <- struct{}{}
		}
	}
	close(pp.doneCh)
}

// stepBatchPipelined is StepBatch's overlapped body: drafting sequence
// i+1 proceeds while sequence i is being scored and earlier sequences
// verified. out[i]'s drafting fields are written here before the tree is
// handed off; its verification fields are written by the verify worker;
// the doneCh receive orders all of it before the caller reads out.
func (e *Engine) stepBatchPipelined(d draft.Drafter, seqs []Seq, p Params, rngs []*rand.Rand, out []Result, trees []*tree) {
	pp := e.pipelineFor()
	pp.seqs, pp.trees, pp.rngs, pp.out = seqs, trees, rngs, out
	for i := range seqs {
		out[i] = Result{}
		e.draftTreeInto(trees[i], d, seqs[i].Tokens, seqs[i].PromptLen, seqs[i].Bias, p, &out[i])
		pp.workCh <- pipeMsg{idx: i, last: i == len(seqs)-1}
	}
	<-pp.doneCh
	// Drop the round's slice references so retired requests and caller
	// buffers are not pinned by engine scratch between rounds.
	pp.seqs, pp.trees, pp.rngs, pp.out = nil, nil, nil, nil
}
