package cluster

import (
	"testing"
	"time"
)

// TestGenerateFaultPlan pins the plan generator's structural invariants:
// events sorted by time, every fault paired with a later revive on the
// same shard, at most one shard down at any instant, kinds cycling
// through the configured set, and determinism under a fixed seed.
func TestGenerateFaultPlan(t *testing.T) {
	cfg := FaultPlanConfig{
		Seed:     42,
		Shards:   4,
		Duration: 10 * time.Second,
		Faults:   5,
		Kinds:    []FaultKind{FaultCrash, FaultHang, FaultSlow},
	}
	plan := GenerateFaultPlan(cfg)
	if got, want := len(plan.Events), 2*cfg.Faults; got != want {
		t.Fatalf("plan has %d events, want %d", got, want)
	}
	down := -1 // shard currently down, -1 when none
	var kinds []FaultKind
	for i, ev := range plan.Events {
		if i > 0 && ev.At < plan.Events[i-1].At {
			t.Fatalf("events not sorted: %v after %v", ev, plan.Events[i-1])
		}
		if ev.Shard < 0 || ev.Shard >= cfg.Shards {
			t.Fatalf("event %v targets shard out of range", ev)
		}
		if ev.Kind == FaultRevive {
			if down != ev.Shard {
				t.Fatalf("revive for shard %d but shard %d is down", ev.Shard, down)
			}
			down = -1
			continue
		}
		if down != -1 {
			t.Fatalf("fault %v while shard %d still down — plan must keep one shard down at a time", ev, down)
		}
		down = ev.Shard
		kinds = append(kinds, ev.Kind)
		if ev.Kind == FaultSlow && ev.Stall <= 0 {
			t.Fatalf("slow fault without a stall: %v", ev)
		}
	}
	if down != -1 {
		t.Fatalf("plan ends with shard %d still down", down)
	}
	for i, k := range kinds {
		if want := cfg.Kinds[i%len(cfg.Kinds)]; k != want {
			t.Fatalf("fault %d kind = %v, want %v (kinds must cycle)", i, k, want)
		}
	}
	again := GenerateFaultPlan(cfg)
	for i := range plan.Events {
		if plan.Events[i] != again.Events[i] {
			t.Fatalf("plan not deterministic at event %d: %v vs %v", i, plan.Events[i], again.Events[i])
		}
	}
}
