package cluster

import (
	"fmt"
	"time"
)

// AdmissionConfig bounds each shard's request backlog.
type AdmissionConfig struct {
	// MaxPending caps a shard's admitted-but-unfinished requests;
	// requests routed to a shard at the cap are shed. The cap is enforced
	// by atomic slot reservation, so it holds exactly under concurrent
	// submits. Default 64.
	MaxPending int
}

func (a AdmissionConfig) withDefaults() AdmissionConfig {
	if a.MaxPending < 1 {
		a.MaxPending = 64
	}
	return a
}

// svcAlpha is the EWMA coefficient for a shard's per-request service time
// estimate (the weight of the newest sample).
const svcAlpha = 0.2

// ErrShedded reports a request rejected by admission control. It is a
// typed error so callers can distinguish load shedding (retryable, with a
// hint) from hard failures.
type ErrShedded struct {
	// Shard is the shard that shed the request.
	Shard int
	// Pending is the shard's outstanding request count at shed time.
	Pending int
	// RetryAfter estimates when the shard expects to have drained enough
	// to admit the request.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ErrShedded) Error() string {
	return fmt.Sprintf("cluster: shard %d shed request (pending %d, retry after %v)",
		e.Shard, e.Pending, e.RetryAfter)
}

// admit applies the shard's admission policy for a request that has just
// reserved an outstanding slot: n is the reserved count including this
// request, deadline its latency budget (0 = none). It returns nil when
// the request may enter the shard's queue, or *ErrShedded (in which case
// the caller releases the reservation). Because n comes from an atomic
// reservation rather than a load probe, the maxPending cap holds exactly
// under concurrent submits.
func (sh *shard) admit(n int, deadline time.Duration, maxPending int) error {
	backlog := n - 1 // requests ahead of this one
	svc := sh.svcEstimate()
	replicas := sh.server().Replicas()
	if n > maxPending {
		// Queue-bound shedding: retry once the backlog beyond the cap has
		// drained through the shard's replicas.
		excess := n - maxPending
		return &ErrShedded{
			Shard:      sh.id,
			Pending:    backlog,
			RetryAfter: scaleDur(svc, float64(excess)/float64(replicas)),
		}
	}
	if deadline > 0 && svc > 0 {
		// Deadline-aware shedding: the expected wait behind the backlog
		// already blows the budget, so failing now lets the client retry
		// elsewhere instead of burning a queue slot.
		estWait := scaleDur(svc, float64(backlog)/float64(replicas))
		if estWait+svc > deadline {
			return &ErrShedded{Shard: sh.id, Pending: backlog, RetryAfter: estWait + svc - deadline}
		}
	}
	return nil
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
