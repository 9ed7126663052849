// Shard health monitoring: the detection half of failover. The monitor
// polls each shard's liveness signals (crash flag, decode-step progress)
// and drives the coordinator's Dead transition — crashed shards are marked
// dead and their sessions failed over, and hung shards (inflight work but
// no step progress across consecutive polls) are escalated to a crash so
// their stranded requests replay on survivors. Recovery is explicit:
// ReviveShard returns a shard once its fault is cleared.
package cluster

import (
	"fmt"
	"time"

	"fastrl/internal/coordinator"
)

// hangPolls is how many consecutive reliable polls a shard may show
// inflight work with zero step progress before the monitor escalates the
// hang to a crash. Polls where several shards are simultaneously
// stalled-with-inflight are not charged (see Poll).
const hangPolls = 10

// HealthEvent records one monitor-driven transition.
type HealthEvent struct {
	Shard int
	// Kind is FaultCrash: the monitor reports detected deaths and hang
	// escalations.
	Kind FaultKind
}

func (e HealthEvent) String() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Kind) }

// Monitor polls shard health and applies failure transitions.
type Monitor struct {
	c         *Cluster
	lastSteps []int64
	stalls    []int
}

// NewMonitor builds a health monitor over the cluster.
func (c *Cluster) NewMonitor() *Monitor {
	return &Monitor{
		c:         c,
		lastSteps: make([]int64, len(c.shards)),
		stalls:    make([]int, len(c.shards)),
	}
}

// Poll takes one health observation at virtual time now and applies any
// transitions it implies, returning them. Poll is the monitor's only
// method with side effects; callers run it on their experiment cadence.
func (m *Monitor) Poll(now time.Duration) []HealthEvent {
	deltas := make([]int64, len(m.c.shards))
	stalled := 0
	for i, sh := range m.c.shards {
		srv := sh.server()
		s := srv.StepCount()
		deltas[i] = s - m.lastSteps[i]
		m.lastSteps[i] = s
		if coordinator.State(sh.state.Load()) != coordinator.Dead &&
			!srv.Crashed() && srv.Inflight() > 0 && deltas[i] == 0 {
			stalled++
		}
	}
	// Several shards stalled-with-inflight in the same interval is the
	// signature of the monitoring process itself being starved of CPU (or
	// of a mass outage no single escalation fixes), not of one shard
	// hanging: a hung shard strands only its own requests while survivors
	// keep stepping. Freeze the stall counters for this interval — neither
	// charge nor acquit — so starvation can't escalate a healthy shard,
	// and a real hang still accumulates as soon as observation recovers.
	reliable := stalled <= 1
	var evs []HealthEvent
	for i, sh := range m.c.shards {
		if coordinator.State(sh.state.Load()) == coordinator.Dead {
			m.stalls[i] = 0
			continue
		}
		srv := sh.server()
		if srv.Crashed() {
			// Crash already happened server-side; propagate it to routing
			// and fail over whatever sessions are still bound.
			m.c.CrashShard(i, now)
			evs = append(evs, HealthEvent{Shard: i, Kind: FaultCrash})
			m.stalls[i] = 0
			continue
		}
		if srv.Inflight() > 0 && deltas[i] == 0 {
			// Work on board but no step progress: a hang candidate. Only
			// escalation frees the stranded requests — a hung replica never
			// reaches a step boundary, so cancellation alone cannot.
			if reliable {
				m.stalls[i]++
				if m.stalls[i] >= hangPolls {
					m.c.CrashShard(i, now)
					evs = append(evs, HealthEvent{Shard: i, Kind: FaultCrash})
					m.stalls[i] = 0
				}
			}
			continue
		}
		m.stalls[i] = 0
	}
	return evs
}
