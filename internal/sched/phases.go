package sched

import (
	"sync/atomic"
	"time"
)

// Phase identifies one slice of a scheduler iteration for tail-latency
// attribution: where inside Batch.Step a request's virtual time actually
// goes. Phases that advance the clock (prefill, draft, verify, tool-wait)
// accumulate virtual nanoseconds; boundary phases that are free in
// virtual time (admit-drain, cancel-sweep, retire) accumulate event
// counts only, so the phase-time sum decomposes total step time exactly.
type Phase int

const (
	// PhaseAdmitDrain counts requests drained from the admission queue
	// into the batch (zero virtual time; the prefill pass carries the
	// cost).
	PhaseAdmitDrain Phase = iota
	// PhasePrefill is the batched prompt forward for new admissions, plus
	// the one-off SD-activation re-prefill (switchCost).
	PhasePrefill
	// PhaseDraft is the draft-model forward passes of an SD round.
	PhaseDraft
	// PhaseVerify is the batched target verification/commit pass (or the
	// whole decode pass in vanilla mode) plus per-iteration host
	// overheads.
	PhaseVerify
	// PhaseCancelSweep counts requests retired through the cancellation
	// sweep at the step boundary.
	PhaseCancelSweep
	// PhaseRetire counts requests moved to the retirement buffer.
	PhaseRetire
	// PhaseToolWait is the clock jump of an all-waiting iteration (every
	// active request inside a GPU-free tool call).
	PhaseToolWait
	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"admit-drain", "prefill", "draft", "verify", "cancel-sweep", "retire", "tool-wait",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseProfile accumulates per-phase virtual time and event counts across
// scheduler iterations. All fields are atomics, so one profile may be
// shared by every replica batch of a shard (they still step on their own
// goroutines) and read concurrently by stats snapshots. A nil profile is
// inert: every method is a nil-receiver no-op, keeping Step's hot path at
// one pointer check when profiling is off ("free when off").
type PhaseProfile struct {
	ns     [NumPhases]atomic.Int64
	events [NumPhases]atomic.Int64
	steps  atomic.Int64
	total  atomic.Int64
}

// NewPhaseProfile returns an empty profile.
func NewPhaseProfile() *PhaseProfile { return &PhaseProfile{} }

// add charges virtual time to a phase.
func (p *PhaseProfile) add(ph Phase, d time.Duration) {
	if p == nil {
		return
	}
	p.ns[ph].Add(int64(d))
	p.events[ph].Add(1)
}

// count records events for a zero-virtual-time phase.
func (p *PhaseProfile) count(ph Phase, n int64) {
	if p == nil || n == 0 {
		return
	}
	p.events[ph].Add(n)
}

// endStep closes one Step call, accumulating its total clock movement.
// The per-phase sum must reconcile with this total: every clock advance
// inside Step is attributed to exactly one phase.
func (p *PhaseProfile) endStep(start, end time.Duration) {
	if p == nil {
		return
	}
	p.steps.Add(1)
	p.total.Add(int64(end - start))
}

// PhaseSnapshot is a point-in-time copy of a PhaseProfile.
type PhaseSnapshot struct {
	Ns      [NumPhases]int64
	Events  [NumPhases]int64
	Steps   int64
	TotalNs int64
}

// Snapshot reads the profile (nil-safe: a nil profile reports zeros).
// Concurrent stepping may move individual counters between reads; at
// quiescence the snapshot is exact and Reconciles.
func (p *PhaseProfile) Snapshot() PhaseSnapshot {
	var s PhaseSnapshot
	if p == nil {
		return s
	}
	for i := 0; i < int(NumPhases); i++ {
		s.Ns[i] = p.ns[i].Load()
		s.Events[i] = p.events[i].Load()
	}
	s.Steps = p.steps.Load()
	s.TotalNs = p.total.Load()
	return s
}

// SumNs returns the summed per-phase virtual time.
func (s PhaseSnapshot) SumNs() int64 {
	var sum int64
	for _, v := range s.Ns {
		sum += v
	}
	return sum
}

// Reconciles reports whether the phase decomposition is exact: the
// per-phase sum equals the total virtual time Step calls moved the clock.
func (s PhaseSnapshot) Reconciles() bool { return s.SumNs() == s.TotalNs }
