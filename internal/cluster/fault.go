// Chaos-grade fault injection and warm recovery. A seeded FaultPlan
// schedules crash/hang/slow-shard events at virtual-time points; the chaos
// replay applies each one through CrashShard, HangShard, SlowShard or
// ReviveShard as its clock passes the event. Recovery rebuilds a dead
// shard's serving.Server over the live drafter, with its prefix cache
// re-warmed by copying the survivors' hottest prefixes into it
// (warmHandoff).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fastrl/internal/serving"
	"fastrl/internal/trace"
)

// FaultKind discriminates injectable faults.
type FaultKind uint8

const (
	// FaultCrash kills a shard at a step boundary: running requests fail
	// with serving.ErrCrashed (failover resubmits them), the shard leaves
	// the serving set until revived.
	FaultCrash FaultKind = iota + 1
	// FaultHang freezes a shard's replicas without failing anything — the
	// fault the health monitor must detect and escalate to a crash.
	FaultHang
	// FaultSlow injects a per-step stall, degrading the shard's throughput
	// without killing it.
	FaultSlow
	// FaultRevive ends a shard's fault: a dead shard is rebuilt warm, a
	// slow/hung shard restored to full speed.
	FaultRevive
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	case FaultRevive:
		return "revive"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultEvent is one scheduled fault at a virtual-time point.
type FaultEvent struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Kind is what happens.
	Kind FaultKind
	// Shard is the target shard.
	Shard int
	// Stall is the injected per-step stall (FaultSlow only).
	Stall time.Duration
}

// FaultPlan is a deterministic schedule of fault events, ordered by time.
type FaultPlan struct {
	Events []FaultEvent
}

// FaultPlanConfig parameterises GenerateFaultPlan.
type FaultPlanConfig struct {
	// Seed drives shard and kind selection.
	Seed int64
	// Shards is the cluster size (targets are drawn from [0, Shards)).
	Shards int
	// Duration is the window faults are spread over.
	Duration time.Duration
	// Faults is how many fault/revive pairs to schedule. Default 1.
	Faults int
	// MTTR is the virtual time between a fault and its revive; clamped so
	// at most one shard is down at a time. Default Duration/(4*Faults).
	MTTR time.Duration
	// Kinds restricts the drawn fault kinds (default crash and hang).
	Kinds []FaultKind
	// Stall is the injected stall for FaultSlow events. Default 2ms.
	Stall time.Duration
}

// GenerateFaultPlan builds a deterministic fault plan: Faults evenly-spaced
// fault times across Duration, each paired with a revive MTTR later
// (clamped before the next fault, so at most one shard is down at a time
// and the plan composes with the scaler's one-shard serving floor). The
// seed picks which shard dies; kinds cycle through Kinds in order.
func GenerateFaultPlan(cfg FaultPlanConfig) FaultPlan {
	if cfg.Shards < 1 || cfg.Duration <= 0 {
		return FaultPlan{}
	}
	if cfg.Faults < 1 {
		cfg.Faults = 1
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []FaultKind{FaultCrash, FaultHang}
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 2 * time.Millisecond
	}
	spacing := cfg.Duration / time.Duration(cfg.Faults+1)
	if cfg.MTTR <= 0 {
		cfg.MTTR = spacing / 4
		if cfg.MTTR <= 0 {
			cfg.MTTR = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var plan FaultPlan
	for i := 1; i <= cfg.Faults; i++ {
		at := spacing * time.Duration(i)
		revive := at + cfg.MTTR
		if next := at + spacing; revive >= next {
			revive = at + spacing*3/4
		}
		ev := FaultEvent{
			At: at,
			// Kinds cycle rather than draw randomly so every configured kind
			// is exercised whenever Faults >= len(Kinds) — a chaos run that
			// never crashes (or never hangs) tests half the failover machinery.
			Kind:  cfg.Kinds[(i-1)%len(cfg.Kinds)],
			Shard: rng.Intn(cfg.Shards),
		}
		if ev.Kind == FaultSlow {
			ev.Stall = cfg.Stall
		}
		plan.Events = append(plan.Events, ev, FaultEvent{At: revive, Kind: FaultRevive, Shard: ev.Shard})
	}
	sort.SliceStable(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}

// faultKindSpan maps a fault kind to its trace span kind.
func faultKindSpan(k FaultKind) trace.Kind {
	switch k {
	case FaultCrash:
		return trace.KindFaultCrash
	case FaultHang:
		return trace.KindFaultHang
	case FaultSlow:
		return trace.KindFaultSlow
	default:
		return trace.KindFaultRevive
	}
}

// recordFault stamps a fault event into the target shard's flight ring at
// its virtual application time, so postmortems carry the fault itself
// alongside the request spans it interrupted.
func (c *Cluster) recordFault(id int, k FaultKind, now time.Duration, arg int64) {
	c.shards[id].flight.Record(trace.Record{
		Shard: int32(id), Kind: faultKindSpan(k), Start: now, End: now, Arg: arg,
	})
}

// CrashShard kills a shard at its replicas' next step boundary. Order
// matters: the shard leaves the routing set before the server crashes, so
// failover resubmissions racing the crash cannot route back onto the
// dying shard; the session sweep then unsticks anything the server-side
// job failure missed.
func (c *Cluster) CrashShard(id int, now time.Duration) {
	c.recordFault(id, FaultCrash, now, 0)
	c.scaler.markDead(id, now)
	// Crash blocks until the shard's replicas exit, so by the time the
	// postmortem snapshots the ring every in-flight request's final spans
	// have landed.
	c.shards[id].server().Crash()
	c.capturePostmortem(id, now, FaultCrash)
	c.failoverShard(id, serving.ErrCrashed)
}

// HangShard freezes a shard's replicas mid-decode without terminating
// anything — the silent fault. Detection and escalation are the health
// monitor's job (see Monitor.Poll). now is the virtual injection time,
// recorded in the shard's flight ring.
func (c *Cluster) HangShard(id int, now time.Duration) {
	c.recordFault(id, FaultHang, now, 0)
	c.shards[id].server().Hang()
}

// SlowShard injects a per-step stall into a shard's replicas, recording
// the injection in the shard's flight ring (Arg = stall in nanoseconds).
func (c *Cluster) SlowShard(id int, stall time.Duration, now time.Duration) {
	c.recordFault(id, FaultSlow, now, int64(stall))
	c.shards[id].server().SetStall(stall)
}

// ReviveShard brings a faulted shard back into the serving set. A slow or
// hung shard that is still alive is restored in place. A dead shard is
// rebuilt warm: a fresh serving.Server over the shared target and the live
// drafter, and the shard's prefix cache wiped and re-warmed with the
// surviving shards' hottest prefixes, imported coldest first so that the
// hottest stay resident if the copies overflow its budget.
func (c *Cluster) ReviveShard(id int, now time.Duration) error {
	sh := c.shards[id]
	c.recordFault(id, FaultRevive, now, 0)
	if !sh.server().Crashed() {
		// Slowed or hung, not dead: clear the injected faults and rejoin.
		sh.server().SetStall(0)
		sh.server().Unhang()
		c.scaler.markRecovered(id, now)
		return nil
	}
	// Reclaim the dead server's replica goroutines (idempotent; the crash
	// already initiated shutdown).
	sh.server().Crash()

	if sh.cache != nil {
		// Wipe state from before the crash, then re-warm from the
		// survivors' hottest prefixes (prompt boundaries included): the
		// revived shard starts with a working set instead of a cold cache.
		sh.cache.Clear()
		c.warmHandoff(sh)
	}
	srv, err := serving.New(c.shardServingConfig(sh), c.target, c.drafter)
	if err != nil {
		return fmt.Errorf("cluster: reviving shard %d: %w", id, err)
	}
	sh.srv.Store(srv)
	c.scaler.markRecovered(id, now)
	return nil
}
