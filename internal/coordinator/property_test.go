package coordinator

import (
	"math/rand"
	"testing"
	"time"
)

// TestCoordinatorInvariants drives the state machine with random event
// sequences and checks structural invariants after every event:
//   - a leader exists if and only if at least one worker is TRAINING
//   - the leader itself is TRAINING (so never DEAD)
//   - worker states are always one of the four defined values
//   - RolloutComplete always clears all TRAINING workers
func TestCoordinatorInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		workers := 1 + rng.Intn(8)
		threshold := 1 + rng.Intn(3)
		c, err := New(Config{Workers: workers, IdleThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		for ev := 0; ev < 60; ev++ {
			w := rng.Intn(workers)
			now := time.Duration(ev)
			switch rng.Intn(6) {
			case 0:
				c.WorkerIdle(w, now)
			case 1:
				c.WorkerBusy(w, now)
			case 2:
				c.RolloutComplete(now)
			case 3:
				c.Reset()
			case 4:
				c.WorkerDead(w, now)
			case 5:
				c.WorkerRecovered(w, now)
			}
			checkInvariants(t, c, trial, ev)
		}
	}
}

func checkInvariants(t *testing.T, c *Coordinator, trial, ev int) {
	t.Helper()
	training := c.TrainingWorkers()
	leader := c.Leader()
	if len(training) > 0 && leader < 0 {
		t.Fatalf("trial %d ev %d: training workers %v without a leader", trial, ev, training)
	}
	if len(training) == 0 && leader >= 0 {
		t.Fatalf("trial %d ev %d: leader %d with no training workers", trial, ev, leader)
	}
	if leader >= 0 && c.State(leader) != Training {
		t.Fatalf("trial %d ev %d: leader %d in state %v", trial, ev, leader, c.State(leader))
	}
	for w, s := range c.States() {
		switch s {
		case Busy, Idle, Training, Dead:
		default:
			t.Fatalf("trial %d ev %d: worker %d invalid state %d", trial, ev, w, int(s))
		}
		if s == Dead && w == leader {
			t.Fatalf("trial %d ev %d: leader %d is %v", trial, ev, w, s)
		}
	}
}

// TestCoordinatorActionsConsistent checks emitted actions reference valid
// workers, that StartTraining includes its leader, and that the session
// and preemption counters match the actions returned.
func TestCoordinatorActionsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := New(Config{Workers: 6, IdleThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	var actions []Action
	for ev := 0; ev < 300; ev++ {
		w := rng.Intn(6)
		now := time.Duration(ev)
		switch rng.Intn(3) {
		case 0:
			actions = append(actions, c.WorkerIdle(w, now)...)
		case 1:
			actions = append(actions, c.WorkerBusy(w, now)...)
		case 2:
			actions = append(actions, c.RolloutComplete(now)...)
		}
	}
	var sessions, preemptions int
	for _, a := range actions {
		switch a.Kind {
		case StartTraining:
			sessions++
		case PreemptTraining:
			preemptions++
		}
		if len(a.Workers) == 0 {
			t.Fatalf("action %v has no workers", a)
		}
		for _, w := range a.Workers {
			if w < 0 || w >= 6 {
				t.Fatalf("action %v references invalid worker", a)
			}
		}
		if a.Kind == StartTraining {
			found := false
			for _, w := range a.Workers {
				if w == a.Leader {
					found = true
				}
			}
			if !found {
				t.Fatalf("StartTraining %v does not include its leader", a)
			}
		}
	}
	if len(actions) == 0 {
		t.Fatal("no actions emitted over 300 events")
	}
	if c.Sessions != sessions || c.Preemptions != preemptions {
		t.Fatalf("counters sessions=%d preemptions=%d, actions returned %d and %d",
			c.Sessions, c.Preemptions, sessions, preemptions)
	}
}

// TestFaultTransitions pins the health-state edges: a dead worker ignores
// load-driven promotions, a training leader's death migrates the session,
// and recovery is the only path back to duty.
func TestFaultTransitions(t *testing.T) {
	c, err := New(Config{Workers: 4, IdleThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Start a session led by worker 0 with workers 0 and 1.
	c.WorkerIdle(0, 0)
	c.WorkerIdle(1, 1)
	if c.Leader() != 0 || c.State(0) != Training || c.State(1) != Training {
		t.Fatalf("session setup wrong: leader=%d states=%v", c.Leader(), c.States())
	}
	// Killing the leader preempts it and migrates leadership to worker 1.
	acts := c.WorkerDead(0, 2)
	if len(acts) != 1 || acts[0].Kind != PreemptTraining {
		t.Fatalf("leader death actions = %v", acts)
	}
	if c.State(0) != Dead || c.Leader() != 1 || c.State(1) != Training {
		t.Fatalf("after leader death: leader=%d states=%v", c.Leader(), c.States())
	}
	// Load pressure cannot resurrect a dead worker.
	if acts := c.WorkerBusy(0, 3); acts != nil {
		t.Fatalf("WorkerBusy on dead worker emitted %v", acts)
	}
	if c.State(0) != Dead {
		t.Fatalf("dead worker promoted to %v by WorkerBusy", c.State(0))
	}
	if c.WorkerIdle(0, 4); c.State(0) != Dead {
		t.Fatalf("dead worker moved to %v by WorkerIdle", c.State(0))
	}
	// A step barrier does not revive it either.
	c.Reset()
	if c.State(0) != Dead {
		t.Fatalf("Reset revived dead worker to %v", c.State(0))
	}
	// A busy worker dies too.
	c.WorkerDead(2, 6)
	if c.State(2) != Dead {
		t.Fatalf("worker 2 state %v, want DEAD", c.State(2))
	}
	// Recovery returns both to serving duty.
	c.WorkerRecovered(0, 8)
	c.WorkerRecovered(2, 9)
	if c.State(0) != Busy || c.State(2) != Busy {
		t.Fatalf("recovery failed: states=%v", c.States())
	}
	// Recovering a healthy worker is a no-op.
	if acts := c.WorkerRecovered(3, 10); acts != nil || c.State(3) != Busy {
		t.Fatalf("recovering healthy worker: acts=%v state=%v", acts, c.State(3))
	}
}
