// Package trace is the zero-allocation, virtual-time request-lifecycle
// tracing substrate shared by sched, serving, and cluster.
//
// Every traced request owns a ReqTrace: a preallocated fixed-slot arena
// of Spans stamped with vclock virtual time, so traces from a fixed-seed
// replay are deterministic down to the byte of their export. Recording
// is off on hot paths by default — a request with a nil *ReqTrace costs
// the scheduler one pointer check per anchor — and when on, steady-state
// recording performs no allocations: spans append into the arena
// reserved at Start, arenas recycle through the Tracer's free list, and
// overflow past the arena capacity is counted (DroppedSpans), never
// grown.
//
// # Span taxonomy
//
// A request's lifecycle records the following kinds, in virtual-time
// order (instants have Start == End):
//
//	KindSubmit    instant: the request entered a batch's admission queue.
//	KindQueue     submit → prefill start (admission-queue wait).
//	KindPrefill   the batched prompt forward that admitted the request.
//	KindDecode    one vanilla decode step (Arg = tokens delivered, 1).
//	KindSDRound   one speculation round (Arg = tokens delivered).
//	KindToolWait  a GPU-free tool-call pause (decode resumes at End).
//	KindCancel    instant: the batch observed the cancel flag.
//	KindRetire    instant: the request left the batch (Arg = generated
//	              tokens). Always the final span.
//	KindFailover  instant: a failover session replayed the request on a
//	              new shard (Arg = attempt number). Recorded into the
//	              destination shard's flight recorder, not a ReqTrace:
//	              the replay's own spans carry the request's new life.
//	KindFaultCrash/KindFaultHang/KindFaultSlow/KindFaultRevive
//	              instant fault markers recorded into a shard's flight
//	              recorder at the virtual time the fault was applied
//	              (KindFaultSlow's Arg is the injected stall in ns).
//
// Within one request the busy spans (Prefill, Decode, SDRound, ToolWait)
// never overlap: the scheduler charges them sequentially on the virtual
// clock. Export.Validate checks this, along with non-negative durations
// and Submit-first/Retire-last ordering.
//
// # Flight recorder
//
// FlightRecorder is a bounded lock-free ring of recent Records (span
// copies plus fault markers) — one per shard. Writers publish with a
// seqlock-style slot protocol built entirely from atomics, so recording
// is wait-free, allocation-free, and race-detector-clean; Snapshot
// returns the newest records, skipping any slot caught mid-overwrite.
// The cluster snapshots a shard's ring into a Postmortem whenever the
// shard dies, so every chaos crash or hang leaves a capture of what the
// shard was doing when it happened.
package trace

import (
	"sync"
	"time"
)

// Kind identifies a lifecycle span. The zero Kind is invalid, so a
// zeroed ring slot can never masquerade as a record.
type Kind uint8

const (
	// KindSubmit is the instant a request entered an admission queue.
	KindSubmit Kind = iota + 1
	// KindQueue spans admission-queue wait: submit → prefill start.
	KindQueue
	// KindPrefill spans the batched prompt forward admitting the request.
	KindPrefill
	// KindDecode spans one vanilla decode step.
	KindDecode
	// KindSDRound spans one speculation round.
	KindSDRound
	// KindToolWait spans a GPU-free tool-call pause.
	KindToolWait
	// KindCancel is the instant the batch observed a cancellation.
	KindCancel
	// KindRetire is the instant the request left its batch.
	KindRetire
	// KindFailover is the instant a failover session replayed the request
	// on a new shard.
	KindFailover
	// KindFaultCrash marks an applied crash fault.
	KindFaultCrash
	// KindFaultHang marks an applied hang fault.
	KindFaultHang
	// KindFaultSlow marks an applied slow fault (Arg = stall ns).
	KindFaultSlow
	// KindFaultRevive marks a shard revival.
	KindFaultRevive
	// KindSLOBreach marks an SLO burn-rate breach observed on a shard
	// (recorded into the shard's flight recorder with ReqID = -1; Arg is
	// the breaching spec's index). Emitted on the breach's rising edge and
	// once per burn-window slice while it persists, so postmortem rings
	// captured during a fault window hold the marker.
	KindSLOBreach

	kindMax
)

var kindNames = [kindMax]string{
	KindSubmit:      "submit",
	KindQueue:       "queue",
	KindPrefill:     "prefill",
	KindDecode:      "decode",
	KindSDRound:     "sd-round",
	KindToolWait:    "tool-wait",
	KindCancel:      "cancel",
	KindRetire:      "retire",
	KindFailover:    "failover",
	KindFaultCrash:  "fault-crash",
	KindFaultHang:   "fault-hang",
	KindFaultSlow:   "fault-slow",
	KindFaultRevive: "fault-revive",
	KindSLOBreach:   "slo-breach",
}

func (k Kind) String() string {
	if k < kindMax && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// kindForName inverts String for the Chrome-trace reader.
func kindForName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return 0
}

// Span is one recorded lifecycle interval in virtual time. Instant
// events have Start == End.
type Span struct {
	Kind  Kind
	Start time.Duration
	End   time.Duration
	// Arg is kind-specific payload (tokens delivered, attempt number,
	// stall ns).
	Arg int64
}

// ReqTrace is one request's span arena. It is owned by the goroutine
// stepping the request's batch; Record and Close are not safe for
// concurrent use with each other (the Tracer hands each arena to exactly
// one request at a time). All methods are nil-receiver-safe, so callers
// record unconditionally and an untraced request costs one nil check.
type ReqTrace struct {
	reqID int64
	shard int32
	spans []Span // fixed-capacity arena; len grows, cap never does
	drops int
	// submitted memoises the KindSubmit timestamp so the scheduler can
	// derive the queue span without carrying state of its own.
	submitted time.Duration
	closed    bool
	t         *Tracer
	fr        *FlightRecorder
}

// Record appends one span. When the arena is full the span is dropped
// and counted; recording never allocates. The span is also mirrored into
// the trace's flight recorder, if one was attached at Start.
func (rt *ReqTrace) Record(k Kind, start, end time.Duration, arg int64) {
	if rt == nil || rt.closed {
		return
	}
	if k == KindSubmit {
		rt.submitted = start
	}
	if len(rt.spans) < cap(rt.spans) {
		rt.spans = append(rt.spans, Span{Kind: k, Start: start, End: end, Arg: arg})
	} else {
		rt.drops++
	}
	rt.fr.Record(Record{ReqID: rt.reqID, Shard: rt.shard, Kind: k, Start: start, End: end, Arg: arg})
}

// SubmittedAt returns the KindSubmit timestamp recorded earlier (zero if
// none), letting the scheduler reconstruct the queue span at prefill.
func (rt *ReqTrace) SubmittedAt() time.Duration {
	if rt == nil {
		return 0
	}
	return rt.submitted
}

// Close records a final span and hands the trace back to its Tracer for
// retention. Closing twice is a no-op — the first terminal transition
// wins, mirroring the request lifecycle's Done semantics.
func (rt *ReqTrace) Close(k Kind, at time.Duration, arg int64) {
	if rt == nil || rt.closed {
		return
	}
	rt.Record(k, at, at, arg)
	rt.closed = true
	if rt.t != nil {
		rt.t.finish(rt)
	}
}

// Spans returns the recorded spans (aliasing the arena; valid until the
// Tracer recycles it after Close).
func (rt *ReqTrace) Spans() []Span {
	if rt == nil {
		return nil
	}
	return rt.spans
}

// DroppedSpans returns how many spans overflowed the arena.
func (rt *ReqTrace) DroppedSpans() int {
	if rt == nil {
		return 0
	}
	return rt.drops
}

// Config parameterises a Tracer.
type Config struct {
	// SpanSlots is each request arena's span capacity. A request records
	// ~4 fixed spans plus one per decode step; default 96.
	SpanSlots int
	// MaxRequests bounds retained finished traces. Once reached, newly
	// finished traces are dropped (counted) and their arenas recycled, so
	// a long-running traced server holds bounded memory. Default 16384.
	MaxRequests int
}

func (c Config) withDefaults() Config {
	if c.SpanSlots <= 0 {
		c.SpanSlots = 96
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 16384
	}
	return c
}

// Tracer hands out request arenas and retains finished traces for
// export. Start and finish are safe for concurrent use (serving shards
// share one tracer across replicas); the spans inside each arena are
// still single-writer.
type Tracer struct {
	cfg Config

	mu      sync.Mutex
	free    []*ReqTrace
	done    []*ReqTrace
	started int64
	dropped int64
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	return &Tracer{cfg: cfg.withDefaults()}
}

// Start begins a trace for one request on one shard. fr, when non-nil,
// receives a mirror of every recorded span (cluster shards pass their own
// ring). Start on a nil Tracer returns nil, which every ReqTrace method
// accepts.
func (t *Tracer) Start(reqID int64, shard int32, fr *FlightRecorder) *ReqTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var rt *ReqTrace
	if n := len(t.free); n > 0 {
		rt = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.started++
	t.mu.Unlock()
	if rt == nil {
		rt = &ReqTrace{spans: make([]Span, 0, t.cfg.SpanSlots)}
	}
	rt.reqID = reqID
	rt.shard = shard
	rt.spans = rt.spans[:0]
	rt.drops = 0
	rt.submitted = 0
	rt.closed = false
	rt.t = t
	rt.fr = fr
	return rt
}

// finish retains a closed trace for export, or recycles its arena when
// the retention bound is reached.
func (t *Tracer) finish(rt *ReqTrace) {
	t.mu.Lock()
	if len(t.done) < t.cfg.MaxRequests {
		t.done = append(t.done, rt)
	} else {
		t.dropped++
		t.free = append(t.free, rt)
	}
	t.mu.Unlock()
}

// Started returns how many traces were started.
func (t *Tracer) Started() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// DroppedTraces returns how many finished traces were dropped by the
// retention bound.
func (t *Tracer) DroppedTraces() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
