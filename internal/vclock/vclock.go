// Package vclock provides a virtual cluster clock for the simulated GPU
// substrate. All latency accounting in the simulator advances a Clock
// instead of wall time, so experiments are deterministic and fast while
// preserving the relative cost structure of real hardware.
package vclock

import (
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at virtual time zero, ready to use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative advances are ignored:
// virtual time never flows backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the current
// virtual time, and reports the resulting time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to zero. Only intended for reuse between
// experiment repetitions.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}
