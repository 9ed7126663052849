// Package slo implements a declarative SLO layer over the simulator's
// virtual time: specs ("TTFT p95 under 300ms", "99% of requests
// succeed") are evaluated continuously with the multi-window error-budget
// burn-rate method from SRE practice. An SLO's error budget is the
// tolerated bad fraction (1 - objective); the burn rate is how fast
// observations are consuming that budget (burn 1.0 = exactly on budget).
// A breach requires BOTH a fast window and a slow window burning above
// their thresholds: the fast window makes detection prompt, the slow
// window keeps one transient spike from paging.
//
// Everything is computed in virtual time against a fixed-shape slot ring
// (lazily epoch-cleared, so Observe allocates nothing), which keeps
// fixed-seed runs byte-identical: the burn-rate series is a pure function
// of the observation stream. Breaches emit trace.KindSLOBreach markers
// into the shard's flight recorder — on the rising edge and once per
// ring slot while the breach persists — so postmortem rings captured
// around a fault hold the SLO story alongside the fault markers.
package slo

import (
	"fmt"
	"sync"
	"time"

	"fastrl/internal/trace"
)

// Kind is the observation stream a spec evaluates.
type Kind int

const (
	// TTFT evaluates time-to-first-token latencies.
	TTFT Kind = iota
	// ITL evaluates inter-token latencies.
	ITL
	// Availability evaluates request outcomes (served vs failed).
	Availability
)

func (k Kind) String() string {
	switch k {
	case TTFT:
		return "ttft"
	case ITL:
		return "itl"
	case Availability:
		return "availability"
	}
	return "unknown"
}

// Spec is one declarative SLO.
type Spec struct {
	// Name labels the spec in stats and markers.
	Name string
	// Kind selects the observation stream.
	Kind Kind
	// Threshold is the latency bound for TTFT/ITL specs: an observation
	// at or under it is good. Ignored for Availability.
	Threshold time.Duration
	// Objective is the target good fraction (0.95 = "95% of observations
	// good"); the error budget is 1 - Objective.
	Objective float64
	// FastWindow and SlowWindow are the two burn-rate windows in virtual
	// time. SlowWindow defaults to 10x FastWindow; FastWindow defaults to
	// one virtual second.
	FastWindow time.Duration
	SlowWindow time.Duration
	// FastBurn and SlowBurn are the breach thresholds (defaults 4 and 1):
	// both windows must burn at or above them simultaneously.
	FastBurn float64
	SlowBurn float64
}

const slotsPerFast = 10

func (s Spec) withDefaults() (Spec, error) {
	if s.Objective <= 0 || s.Objective >= 1 {
		return s, fmt.Errorf("slo: spec %q objective %v outside (0,1)", s.Name, s.Objective)
	}
	if s.FastWindow <= 0 {
		s.FastWindow = time.Second
	}
	if s.SlowWindow <= 0 {
		s.SlowWindow = 10 * s.FastWindow
	}
	if s.SlowWindow < s.FastWindow {
		return s, fmt.Errorf("slo: spec %q slow window %v shorter than fast %v", s.Name, s.SlowWindow, s.FastWindow)
	}
	if s.FastBurn <= 0 {
		s.FastBurn = 4
	}
	if s.SlowBurn <= 0 {
		s.SlowBurn = 1
	}
	if (s.Kind == TTFT || s.Kind == ITL) && s.Threshold <= 0 {
		return s, fmt.Errorf("slo: spec %q needs a positive latency threshold", s.Name)
	}
	return s, nil
}

// slot is one time slice of good/bad counts. epoch stamps which slice the
// counts belong to, so stale slots are cleared lazily on first touch
// instead of by a sweeper goroutine.
type slot struct {
	epoch     int64
	good, bad int64
}

// tracker evaluates one spec over its slot ring.
type tracker struct {
	spec      Spec
	slotW     time.Duration
	ring      []slot
	fastSlots int
	slowSlots int
	breached  bool
	lastMark  int64 // epoch of the newest emitted marker
}

func newTracker(s Spec) *tracker {
	slotW := s.FastWindow / slotsPerFast
	if slotW <= 0 {
		slotW = 1
	}
	slow := int((s.SlowWindow + slotW - 1) / slotW)
	return &tracker{
		spec:      s,
		slotW:     slotW,
		ring:      make([]slot, slow+1),
		fastSlots: slotsPerFast,
		slowSlots: slow,
		lastMark:  -1,
	}
}

func (t *tracker) observe(good bool, now time.Duration) {
	e := int64(now / t.slotW)
	s := &t.ring[int(e)%len(t.ring)]
	if s.epoch != e {
		s.epoch, s.good, s.bad = e, 0, 0
	}
	if good {
		s.good++
	} else {
		s.bad++
	}
}

// burn returns the burn rate over the last n slots ending at now's slot.
func (t *tracker) burn(n int, now time.Duration) float64 {
	e := int64(now / t.slotW)
	var good, bad int64
	for i := 0; i < n; i++ {
		want := e - int64(i)
		if want < 0 {
			break
		}
		s := &t.ring[int(want)%len(t.ring)]
		if s.epoch == want {
			good += s.good
			bad += s.bad
		}
	}
	if good+bad == 0 {
		return 0
	}
	badFrac := float64(bad) / float64(good+bad)
	return badFrac / (1 - t.spec.Objective)
}

// Engine evaluates a set of specs against one shard's observation
// streams. All methods are nil-receiver-safe no-ops, so a serving layer
// without SLOs configured pays one pointer check ("free when off").
// Observe methods are mutex-guarded and allocation-free.
type Engine struct {
	mu       sync.Mutex
	specs    []*tracker
	shard    int32
	fr       *trace.FlightRecorder
	lastNow  time.Duration
	breaches int64
}

// NewEngine builds an engine for a shard. fr may be nil (no markers).
// Specs are validated and defaulted; an empty spec list yields a nil
// engine, which is valid and inert.
func NewEngine(specs []Spec, shard int, fr *trace.FlightRecorder) (*Engine, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	e := &Engine{shard: int32(shard), fr: fr}
	for _, s := range specs {
		s, err := s.withDefaults()
		if err != nil {
			return nil, err
		}
		e.specs = append(e.specs, newTracker(s))
	}
	return e, nil
}

// clampNow keeps engine time monotone: outcomes can be observed off the
// replica goroutine with a slightly stale clock reading.
func (e *Engine) clampNow(now time.Duration) time.Duration {
	if now < e.lastNow {
		return e.lastNow
	}
	e.lastNow = now
	return now
}

// ObserveLatency feeds one latency observation (TTFT or ITL) at virtual
// time now.
func (e *Engine) ObserveLatency(k Kind, v time.Duration, now time.Duration) {
	if e == nil {
		return
	}
	e.mu.Lock()
	now = e.clampNow(now)
	for _, t := range e.specs {
		if t.spec.Kind != k {
			continue
		}
		t.observe(v <= t.spec.Threshold, now)
	}
	e.evaluate(now)
	e.mu.Unlock()
}

// ObserveOutcome feeds one request outcome (served = true; failed or
// shed = false) at virtual time now.
func (e *Engine) ObserveOutcome(ok bool, now time.Duration) {
	if e == nil {
		return
	}
	e.mu.Lock()
	now = e.clampNow(now)
	for _, t := range e.specs {
		if t.spec.Kind != Availability {
			continue
		}
		t.observe(ok, now)
	}
	e.evaluate(now)
	e.mu.Unlock()
}

// evaluate re-checks every spec under e.mu, emitting breach markers on
// rising edges and once per slot while a breach persists (bounded: at
// most one marker per spec per slot width of virtual time).
func (e *Engine) evaluate(now time.Duration) {
	for i, t := range e.specs {
		fast := t.burn(t.fastSlots, now)
		slow := t.burn(t.slowSlots, now)
		if fast >= t.spec.FastBurn && slow >= t.spec.SlowBurn {
			epoch := int64(now / t.slotW)
			if !t.breached || epoch > t.lastMark {
				t.breached = true
				t.lastMark = epoch
				e.breaches++
				e.fr.Record(trace.Record{
					ReqID: -1,
					Shard: e.shard,
					Kind:  trace.KindSLOBreach,
					Start: now,
					End:   now,
					Arg:   int64(i),
				})
			}
		} else {
			t.breached = false
		}
	}
}

// SpecStatus is one spec's state at read time.
type SpecStatus struct {
	Spec     Spec
	FastBurn float64
	SlowBurn float64
	Breached bool
}

// Status returns every spec's burn rates as of the engine's latest
// observed virtual time. Nil-safe.
func (e *Engine) Status() []SpecStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SpecStatus, len(e.specs))
	for i, t := range e.specs {
		out[i] = SpecStatus{
			Spec:     t.spec,
			FastBurn: t.burn(t.fastSlots, e.lastNow),
			SlowBurn: t.burn(t.slowSlots, e.lastNow),
			Breached: t.breached,
		}
	}
	return out
}

// BurnRate returns the maximum fast-window burn across all specs, which
// cluster.Stats reports per shard. Nil-safe (0 when unset).
func (e *Engine) BurnRate() float64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var max float64
	for _, t := range e.specs {
		if b := t.burn(t.fastSlots, e.lastNow); b > max {
			max = b
		}
	}
	return max
}

// Breaches returns the total breach markers emitted. Nil-safe.
func (e *Engine) Breaches() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.breaches
}
