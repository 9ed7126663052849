// Dead-shard failover: streaming sessions that survive shard crashes.
//
// A failover session wraps the per-attempt serving.Stream and resubmits
// the request to a surviving shard when its shard dies mid-flight. The
// replay is deterministic — the request's private RNG seed, the frozen
// drafter, and a fixed SD strategy make the regenerated token sequence
// independent of batch composition — so the session suppresses the
// already-delivered prefix of the replayed stream and the client observes
// one seamless, bit-identical stream whether or not a failover happened
// (pinned by TestFailoverStreamEquivalence). Exactly-once delivery holds
// at two layers: serving's per-job finished CAS swallows racing terminals
// (a request that completes during failover never emits twice), and the
// session delivers exactly one Usage event per logical request
// (Cluster.Stats().DuplicateDeliveries counts violations; it must be 0).
package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"fastrl/internal/serving"
	"fastrl/internal/trace"
)

// FailoverConfig parameterises dead-shard failover.
type FailoverConfig struct {
	// Enabled turns failover on: streams route through a session that
	// resubmits to a survivor when the owning shard crashes.
	Enabled bool
}

// maxAttempts bounds total submission attempts per logical request (first
// submit included).
const maxAttempts = 3

// foSession is one logical request's failover state: the current attempt,
// the replay-suppression cursors, and the terminal dedup.
type foSession struct {
	c   *Cluster
	ctx context.Context
	req Request

	// mu guards the attempt binding (inner/sh/attempts) against
	// failoverShard failing the current attempt from the health monitor's
	// goroutine, and the terminal state (done/final).
	mu       sync.Mutex
	inner    *serving.Stream
	sh       *shard
	attempts int
	done     bool
	final    serving.Response

	// cancelled marks an explicit client Cancel: the resulting terminal
	// must be delivered, not retried.
	cancelled atomic.Bool

	// Consumer-owned cursors (Recv is single-consumer): tokens/accept
	// events already handed to the client, and how much of a replayed
	// stream to suppress before resuming delivery.
	delivered    int
	accDelivered int
	suppress     int
	accSuppress  int
}

// bind performs the first submission attempt and registers the session
// for shard-death notification. A submit that lands on a shard dying (or
// restarting) under it is retried within the attempt budget — the same
// window rebind tolerates.
func (fo *foSession) bind() error {
	var lastErr error
	for {
		fo.mu.Lock()
		if fo.attempts >= maxAttempts {
			fo.mu.Unlock()
			return lastErr
		}
		fo.attempts++
		fo.mu.Unlock()
		inner, sh, err := fo.c.submitAttempt(fo.ctx, fo.req)
		if err != nil {
			if errors.Is(err, serving.ErrCrashed) || errors.Is(err, serving.ErrStopped) {
				lastErr = err
				continue
			}
			return err
		}
		fo.mu.Lock()
		fo.inner, fo.sh = inner, sh
		fo.mu.Unlock()
		// Each attempt settles its own admission slot; whole-request outcome
		// accounting happens once, at the session's terminal (finish).
		inner.OnFinish(func(serving.Response) { fo.c.settleAttempt(sh) })
		fo.c.registerSession(fo, sh.id)
		return nil
	}
}

func (fo *foSession) current() *serving.Stream {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.inner
}

func (fo *foSession) shardID() int {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.sh.id
}

// Recv pulls the next client-visible event, transparently absorbing
// failovers: a crash terminal triggers resubmission, and the replayed
// stream's already-delivered prefix is suppressed so delivery resumes
// exactly where it left off.
func (fo *foSession) Recv() (serving.Event, error) {
	for {
		ev, err := fo.current().Recv()
		if err != nil {
			return ev, err // io.EOF after the delivered Usage
		}
		switch ev.Kind {
		case serving.EventTokens:
			if fo.suppress > 0 {
				if n := len(ev.Tokens); n <= fo.suppress {
					fo.suppress -= n
					continue
				}
				ev.Tokens = ev.Tokens[fo.suppress:]
				fo.suppress = 0
			}
			fo.delivered += len(ev.Tokens)
			return ev, nil
		case serving.EventAccept:
			if fo.accSuppress > 0 {
				fo.accSuppress--
				continue
			}
			fo.accDelivered++
			return ev, nil
		case serving.EventUsage:
			if fo.shouldFailover(ev.Usage.Err) && fo.rebind() {
				continue // pump the replayed stream
			}
			return fo.finish(ev), nil
		default:
			return ev, nil
		}
	}
}

// shouldFailover reports whether a terminal error warrants resubmission:
// only shard-death terminals are retried, and only while the client still
// wants the response and attempts remain.
func (fo *foSession) shouldFailover(err error) bool {
	if err == nil || fo.cancelled.Load() || fo.ctx.Err() != nil {
		return false
	}
	if !errors.Is(err, serving.ErrCrashed) && !errors.Is(err, serving.ErrStopped) {
		return false
	}
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.attempts < maxAttempts
}

// rebind resubmits the request to a survivor and arms replay suppression.
// It returns false when no attempt budget remains or resubmission itself
// fails, in which case the caller delivers the crash terminal as-is.
func (fo *foSession) rebind() bool {
	fo.c.unregisterSession(fo)
	for {
		fo.mu.Lock()
		if fo.attempts >= maxAttempts {
			fo.mu.Unlock()
			return false
		}
		fo.attempts++
		fo.mu.Unlock()
		inner, sh, err := fo.c.submitAttempt(fo.ctx, fo.req)
		if err != nil {
			if errors.Is(err, serving.ErrCrashed) || errors.Is(err, serving.ErrStopped) {
				// Routed onto a shard that died under us before the router
				// noticed; spend another attempt.
				continue
			}
			// Shed, cancelled, or cluster stopped: no survivor will take the
			// request — deliver the original terminal.
			return false
		}
		fo.mu.Lock()
		fo.inner, fo.sh = inner, sh
		fo.mu.Unlock()
		inner.OnFinish(func(serving.Response) { fo.c.settleAttempt(sh) })
		// The replay regenerates the full stream; skip what the client
		// already has. Determinism of the regenerated prefix is what makes
		// this a seamless continuation rather than a visible restart.
		fo.suppress = fo.delivered
		fo.accSuppress = fo.accDelivered
		fo.c.registerSession(fo, sh.id)
		fo.c.cFailovers.Inc()
		// Leave a failover marker in the adopting shard's ring: a later
		// postmortem shows the replayed request arriving.
		sh.flight.Record(trace.Record{Shard: int32(sh.id), Kind: trace.KindFailover, Arg: int64(fo.attempts)})
		return true
	}
}

// finish delivers the session's terminal event exactly once and settles
// whole-request outcome accounting against the delivering shard.
func (fo *foSession) finish(ev serving.Event) serving.Event {
	fo.c.unregisterSession(fo)
	fo.mu.Lock()
	if fo.done {
		// A second terminal reaching the client would be a double delivery;
		// count it (the chaos experiment asserts this stays 0).
		fo.c.cDup.Inc()
		fo.mu.Unlock()
		return ev
	}
	fo.done = true
	fo.final = ev.Usage
	sh := fo.sh
	fo.mu.Unlock()
	fo.c.recordOutcome(sh, ev.Usage)
	return ev
}

// Wait drives the session's event pump to the terminal and returns the
// final response (error return authoritative, mirroring serving).
func (fo *foSession) Wait() (Response, error) {
	for {
		if _, err := fo.Recv(); err != nil {
			fo.mu.Lock()
			r, sh := fo.final, fo.sh
			fo.mu.Unlock()
			return Response{Response: r, Shard: sh.id}, r.Err
		}
	}
}

// Cancel cancels the current attempt and pins the session so a crash
// terminal racing the cancel is not retried.
func (fo *foSession) Cancel() {
	fo.cancelled.Store(true)
	fo.current().Cancel()
}

// failCurrent force-fails the session's current attempt — the path a
// shard-death notification takes to unblock sessions stranded on a hung
// shard. If the attempt already finished, the Fail is a no-op (serving's
// terminal dedup).
func (fo *foSession) failCurrent(cause error) {
	if st := fo.current(); st != nil {
		st.Fail(cause)
	}
}

// registerSession binds a session's current attempt to a shard for
// death notification.
func (c *Cluster) registerSession(fo *foSession, shard int) {
	c.failMu.Lock()
	c.sessions[fo] = shard
	c.failMu.Unlock()
}

func (c *Cluster) unregisterSession(fo *foSession) {
	c.failMu.Lock()
	delete(c.sessions, fo)
	c.failMu.Unlock()
}

// failoverShard force-fails every session currently bound to a shard.
// The server-side crash path already fails admitted jobs; this is the
// belt-and-braces sweep that also catches sessions whose attempt raced
// registration, and the primary path for hang escalation. Serving's
// per-job terminal dedup makes the overlap harmless.
func (c *Cluster) failoverShard(id int, cause error) {
	c.failMu.Lock()
	victims := make([]*foSession, 0, len(c.sessions))
	for fo, sh := range c.sessions {
		if sh == id {
			victims = append(victims, fo)
		}
	}
	c.failMu.Unlock()
	for _, fo := range victims {
		fo.failCurrent(cause)
	}
}
