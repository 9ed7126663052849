package coordinator

import "testing"

func TestIdleThresholdPromotion(t *testing.T) {
	c, err := New(Config{Workers: 4, IdleThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	// First idle worker: below threshold, nothing happens.
	if acts := c.WorkerIdle(1, 10); len(acts) != 0 {
		t.Fatalf("premature training start: %v", acts)
	}
	if c.State(1) != Idle {
		t.Fatalf("worker 1 state %v", c.State(1))
	}
	// Second idle worker reaches the threshold: session starts.
	acts := c.WorkerIdle(3, 20)
	if len(acts) != 1 || acts[0].Kind != StartTraining {
		t.Fatalf("expected StartTraining, got %v", acts)
	}
	if acts[0].Leader != 1 {
		t.Fatalf("leader should be lowest-id idle worker, got %d", acts[0].Leader)
	}
	if len(acts[0].Workers) != 2 {
		t.Fatalf("training workers %v", acts[0].Workers)
	}
	if c.State(1) != Training || c.State(3) != Training {
		t.Fatal("workers not in TRAINING state")
	}
	if c.State(0) != Busy || c.State(2) != Busy {
		t.Fatal("busy workers disturbed")
	}
}

func TestLateIdleWorkerJoins(t *testing.T) {
	c, _ := New(Config{Workers: 4, IdleThreshold: 2})
	c.WorkerIdle(0, 1)
	c.WorkerIdle(1, 2)
	// Session running; a third worker joins immediately.
	acts := c.WorkerIdle(2, 3)
	if len(acts) != 1 || acts[0].Kind != JoinTraining {
		t.Fatalf("expected JoinTraining, got %v", acts)
	}
	if acts[0].Leader != 0 {
		t.Fatalf("join should reference leader 0, got %d", acts[0].Leader)
	}
	if len(c.TrainingWorkers()) != 3 {
		t.Fatalf("training workers %v", c.TrainingWorkers())
	}
}

func TestRolloutCompletePreemptsAll(t *testing.T) {
	c, _ := New(Config{Workers: 3, IdleThreshold: 1})
	c.WorkerIdle(2, 1)
	c.WorkerIdle(0, 2)
	acts := c.RolloutComplete(5)
	if len(acts) != 1 || acts[0].Kind != PreemptTraining {
		t.Fatalf("expected PreemptTraining, got %v", acts)
	}
	if len(acts[0].Workers) != 2 {
		t.Fatalf("preempted %v", acts[0].Workers)
	}
	if c.Leader() != -1 {
		t.Fatal("leader not cleared")
	}
	// Idempotent when nothing trains.
	if acts := c.RolloutComplete(6); len(acts) != 0 {
		t.Fatalf("expected no actions, got %v", acts)
	}
}

func TestWorkerBusyPreemptsAndMigratesLeader(t *testing.T) {
	c, _ := New(Config{Workers: 3, IdleThreshold: 1})
	c.WorkerIdle(0, 1) // leader 0
	c.WorkerIdle(1, 2) // joins
	acts := c.WorkerBusy(0, 3)
	if len(acts) != 1 || acts[0].Kind != PreemptTraining {
		t.Fatalf("expected PreemptTraining for worker 0, got %v", acts)
	}
	if c.Leader() != 1 {
		t.Fatalf("leader should migrate to worker 1, got %d", c.Leader())
	}
	if c.State(0) != Busy {
		t.Fatal("worker 0 not busy")
	}
	// Last trainer leaving closes the session.
	c.WorkerBusy(1, 4)
	if c.Leader() != -1 {
		t.Fatalf("session should close, leader %d", c.Leader())
	}
}

func TestResetRestoresBusy(t *testing.T) {
	c, _ := New(Config{Workers: 3, IdleThreshold: 1})
	c.WorkerIdle(1, 1)
	c.Reset()
	for w, s := range c.States() {
		if s != Busy {
			t.Fatalf("worker %d state %v after reset", w, s)
		}
	}
	if c.Leader() != -1 {
		t.Fatal("leader survived reset")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0}); err == nil {
		t.Fatal("expected error for zero workers")
	}
	c, err := New(Config{Workers: 1, IdleThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold clamps to 1: a single idle worker starts training.
	if acts := c.WorkerIdle(0, 1); len(acts) != 1 || acts[0].Kind != StartTraining {
		t.Fatalf("threshold clamp failed: %v", acts)
	}
}

func TestStateStrings(t *testing.T) {
	if Busy.String() != "BUSY" || Idle.String() != "IDLE" || Training.String() != "TRAINING" {
		t.Fatal("state strings wrong")
	}
	if StartTraining.String() != "start-training" || PreemptTraining.String() != "preempt-training" {
		t.Fatal("action strings wrong")
	}
}
