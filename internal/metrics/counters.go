package metrics

import "sync/atomic"

// Counter is a monotonic atomic event counter: a shared, concurrency-safe
// replacement for the ad-hoc atomic.Int64 fields that accumulated in the
// serving and cluster layers. The zero value is ready to use and the state
// is a single word, so embedding one per subsystem stays bounded no matter
// how long the process runs.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (which may be negative for gauge-style use).
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Ratio is bounded hit/miss accounting over an unbounded event stream: two
// Counters and a derived rate, shared by the prefix cache (lookup hits),
// serving probes, and the n-gram drafter instead of each keeping its own
// mutex-guarded pair. The zero value is ready to use; all methods are safe
// for concurrent use.
type Ratio struct {
	hits  Counter
	total Counter
}

// Observe records one event and whether it hit.
func (r *Ratio) Observe(hit bool) {
	r.total.Inc()
	if hit {
		r.hits.Inc()
	}
}

// Hits returns the number of hit events.
func (r *Ratio) Hits() int64 { return r.hits.Load() }

// Total returns the number of observed events.
func (r *Ratio) Total() int64 { return r.total.Load() }

// Rate returns hits/total, 0 before the first observation.
func (r *Ratio) Rate() float64 {
	t := r.total.Load()
	if t == 0 {
		return 0
	}
	return float64(r.hits.Load()) / float64(t)
}
