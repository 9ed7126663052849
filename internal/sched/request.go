package sched

import (
	"math/rand"
	"sync/atomic"
	"time"

	"fastrl/internal/prefixcache"
	"fastrl/internal/trace"
	"fastrl/internal/workload"
)

// Request is one in-flight generation. A request joins a Batch through
// Admit, decodes at step boundaries, and leaves through Retire when done.
type Request struct {
	ID     int
	Prompt []int
	// Tokens is prompt + generated (grows during decoding).
	Tokens []int
	MaxNew int
	// Prior is the length prior driving the dynamic EOS/answer bias.
	Prior workload.LengthPrior
	// AnswerID and EosID are biased by the prior (negative disables).
	AnswerID int
	EosID    int

	Done    bool
	EosSeen bool
	// AcceptLens records per-round accepted token counts while in SD mode
	// — the request's own accounting, so per-request accept-length metrics
	// are exact under continuous batching (not whole-engine averages).
	AcceptLens []int

	// RNG, when non-nil, is the request's private sampling stream: its
	// token stream becomes independent of batch composition and admission
	// time (for drafters whose state is frozen during decode), the
	// property serving relies on for reproducible responses under
	// continuous batching. When nil, the request draws from the shared
	// stream passed to Batch.Step — the trainer's batch-coupled mode.
	RNG *rand.Rand

	// Tag is opaque caller bookkeeping carried through the lifecycle (the
	// serving layer stores its job handle here).
	Tag any

	// Trace, when non-nil, receives the request's lifecycle spans. The
	// caller that admits the request starts it (trace.Tracer.Start) —
	// the scheduler only records into it at each lifecycle anchor and
	// closes it at retirement. Nil (the default) disables tracing at the
	// cost of one pointer check per anchor, keeping the decode hot path
	// bit-identical and allocation-free.
	Trace *trace.ReqTrace

	// Tool configures multi-turn tool-calling behaviour (paper §7);
	// zero value disables it.
	Tool ToolProfile
	tool toolState

	// cancelReq is the cross-goroutine cancellation flag: any goroutine may
	// set it through Cancel while the batch-owning goroutine keeps
	// stepping. The batch observes it at the next step boundary and retires
	// the request (Batch.sweepCancelled), so cancellation costs the decode
	// loop one atomic load per request per step and nothing else.
	cancelReq atomic.Bool

	// Scheduler-owned lifecycle state.
	admittedAt  time.Duration
	finishedAt  time.Duration
	hasFinished bool
	truncated   bool
	cancelled   bool
	// firstTokenAt is the virtual time the first response token landed —
	// the anchor for time-to-first-token metrics — and firstTokN how many
	// tokens that first step delivered (an SD round's whole accepted run
	// lands at once, so mean inter-token latency divides the tail span by
	// the tokens *after* this first chunk).
	firstTokenAt time.Duration
	firstTokN    int
	hasFirstTok  bool
	// retained pins the request's matched prefix-cache node while it is
	// inflight.
	retained *prefixcache.Node
	// slot is the request's index in its batch's occupancy bitmaps while
	// inflight (assigned monotonically at prefill, so slot order is
	// admission order). Owned by the batch goroutine; meaningless while
	// the request is pending or retired.
	slot int
}

// maxPresize bounds the token-capacity reservation of NewRequest: decode
// appends stay allocation-free up to this many generated tokens without
// letting steady-state throughput probes (which use effectively unbounded
// MaxNew) reserve gigantic buffers.
const maxPresize = 1 << 14

// NewRequest builds a request from a prompt. Token storage is reserved up
// front (prompt + MaxNew, bounded), so steady-state decode appends do not
// allocate.
func NewRequest(id int, prompt []int, maxNew int, prior workload.LengthPrior, answerID, eosID int) *Request {
	reserve := maxNew
	if reserve > maxPresize {
		reserve = maxPresize
	}
	if reserve < 0 {
		reserve = 0
	}
	tokens := make([]int, len(prompt), len(prompt)+reserve)
	copy(tokens, prompt)
	return &Request{
		ID:     id,
		Prompt: prompt,
		Tokens: tokens,
		MaxNew: maxNew,
		// Every SD round accepts at least one token, so rounds are bounded
		// by the token reserve; pre-sizing keeps the decode loop free of
		// bookkeeping reallocations.
		AcceptLens: make([]int, 0, reserve),
		Prior:      prior,
		AnswerID:   answerID,
		EosID:      eosID,
	}
}

// Generated returns the number of generated (response) tokens.
func (r *Request) Generated() int { return len(r.Tokens) - len(r.Prompt) }

// Response returns the generated suffix.
func (r *Request) Response() []int { return r.Tokens[len(r.Prompt):] }

// AdmittedAt returns the virtual time the request joined its batch (the
// start of its prefill step).
func (r *Request) AdmittedAt() time.Duration { return r.admittedAt }

// FinishedAt returns the virtual time the request completed (zero while
// still decoding; valid once the request is retired).
func (r *Request) FinishedAt() time.Duration { return r.finishedAt }

// DecodeTime returns the request's virtual service time inside its batch:
// admission (prefill start) to completion. Under continuous batching it
// includes the request's share of co-batched work, which is exactly the
// latency a served request experiences.
func (r *Request) DecodeTime() time.Duration {
	if !r.hasFinished {
		return 0
	}
	return r.finishedAt - r.admittedAt
}

// Truncated reports whether the request was cut off by batch truncation
// (the premature-termination strategy) rather than finishing naturally.
func (r *Request) Truncated() bool { return r.truncated }

// Cancel marks the request for retirement at the next step boundary: the
// owning batch stops decoding it, releases its prefix-cache pins, drops
// its KV charge, and frees its batch slot, retiring it with the tokens
// generated so far. Safe to call from any goroutine at any point in the
// lifecycle (the serving layer calls it from client goroutines while the
// replica steps the batch); cancelling a request that already finished is
// a no-op — natural completion wins the race.
func (r *Request) Cancel() { r.cancelReq.Store(true) }

// CancelRequested reports whether Cancel has been called. The request
// keeps decoding until the owning batch's next step boundary observes the
// flag.
func (r *Request) CancelRequested() bool { return r.cancelReq.Load() }

// Cancelled reports whether the request actually retired via
// cancellation (false when it finished naturally before the batch
// observed a Cancel).
func (r *Request) Cancelled() bool { return r.cancelled }

// FirstTokenAt returns the virtual time the request's first response
// token landed — admission-to-first-token is the request's virtual TTFT
// component — and whether a token has landed yet.
func (r *Request) FirstTokenAt() (time.Duration, bool) {
	return r.firstTokenAt, r.hasFirstTok
}

// FirstChunkTokens returns how many tokens the request's first decoded
// step delivered (0 before any token lands). Mean inter-token latency is
// (FinishedAt - FirstTokenAt) / (Generated - FirstChunkTokens) — the
// denominator serving.Response.ITL uses, kept identical here so
// experiment figures agree across layers.
func (r *Request) FirstChunkTokens() int { return r.firstTokN }

// MeanAcceptLen returns the paper's accept-length metric for this request
// alone (accepted/rounds + 1), 0 when SD never ran for it. Unlike
// engine-level stats it is exact per request under continuous batching.
func (r *Request) MeanAcceptLen() float64 {
	if len(r.AcceptLens) == 0 {
		return 0
	}
	sum := 0
	for _, a := range r.AcceptLens {
		sum += a
	}
	return float64(sum)/float64(len(r.AcceptLens)) + 1
}

// biasInto writes the dynamic logit bias for the request's current length
// into dst (a scheduler-owned map reused across steps) and returns it,
// or nil when no bias applies.
func (r *Request) biasInto(dst map[int]float32) map[int]float32 {
	b := r.Prior.Bias(r.Generated())
	if b == 0 {
		return nil
	}
	clear(dst)
	if r.EosID >= 0 {
		dst[r.EosID] = b
	}
	if r.AnswerID >= 0 {
		dst[r.AnswerID] = b
	}
	if len(dst) == 0 {
		return nil
	}
	return dst
}

// finish marks completion conditions after new tokens landed.
func (r *Request) finish() {
	if r.EosSeen || r.Generated() >= r.MaxNew {
		r.Done = true
	}
}

// releaseRetained drops the request's pinned prefix-cache node, if any.
func (r *Request) releaseRetained() {
	if r.retained != nil {
		r.retained.Release()
		r.retained = nil
	}
}
