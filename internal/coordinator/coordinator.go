// Package coordinator implements the Worker Coordinator of the Adaptive
// Drafter (paper §4.2): a centralized controller that tracks rollout
// worker states (BUSY / IDLE / TRAINING), promotes idle workers to
// opportunistic drafter training once an idle threshold is reached,
// elects a training leader, and preempts training when rollout needs the
// resources back.
//
// The decision logic is a pure state machine (Coordinator), so core's RL
// step and the cluster's elastic scaler drive it directly in virtual time.
package coordinator

import (
	"fmt"
	"time"
)

// State is a rollout worker's lifecycle state.
type State int

const (
	// Busy: serving rollout requests.
	Busy State = iota
	// Idle: rollout finished on this worker, memory released.
	Idle
	// Training: engaged in drafter spot training.
	Training
	// Dead: the worker crashed or hung; its inflight work is failed over
	// to survivors and it takes no new work until revived.
	Dead

	// NumStates is the number of defined worker states, for sizing
	// per-state accumulators.
	NumStates = int(Dead) + 1
)

func (s State) String() string {
	switch s {
	case Busy:
		return "BUSY"
	case Idle:
		return "IDLE"
	case Training:
		return "TRAINING"
	case Dead:
		return "DEAD"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ActionKind enumerates coordinator directives.
type ActionKind int

const (
	// StartTraining directs workers to begin a drafter training session.
	StartTraining ActionKind = iota
	// JoinTraining directs a worker to join the current session's
	// data-parallel group.
	JoinTraining
	// PreemptTraining directs workers to stop training and release
	// resources (graceful shutdown).
	PreemptTraining
)

func (k ActionKind) String() string {
	switch k {
	case StartTraining:
		return "start-training"
	case JoinTraining:
		return "join-training"
	case PreemptTraining:
		return "preempt-training"
	}
	return fmt.Sprintf("action(%d)", int(k))
}

// Action is one coordinator directive.
type Action struct {
	Kind    ActionKind
	Workers []int
	// Leader is the session leader (the first eligible worker, which sets
	// up the training session).
	Leader int
	At     time.Duration
}

// Config parameterises the coordinator.
type Config struct {
	// Workers is the number of rollout workers (one worker = one rollout
	// instance, e.g. a TP group).
	Workers int
	// IdleThreshold is the minimum number of idle workers before a
	// training session starts (paper: configurable threshold).
	IdleThreshold int
}

// Coordinator is the centralized decision state machine (rank 0).
type Coordinator struct {
	cfg    Config
	states []State
	// leader is the active session leader, -1 when no session runs.
	leader int
	// Sessions and Preemptions count the StartTraining and PreemptTraining
	// actions emitted so far.
	Sessions    int
	Preemptions int
}

// New creates a coordinator with all workers BUSY.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("coordinator: need at least one worker")
	}
	if cfg.IdleThreshold < 1 {
		cfg.IdleThreshold = 1
	}
	return &Coordinator{
		cfg:    cfg,
		states: make([]State, cfg.Workers),
		leader: -1,
	}, nil
}

// States returns a snapshot of worker states.
func (c *Coordinator) States() []State {
	return append([]State(nil), c.states...)
}

// State returns one worker's state.
func (c *Coordinator) State(worker int) State { return c.states[worker] }

// Leader returns the active training leader, or -1.
func (c *Coordinator) Leader() int { return c.leader }

// TrainingWorkers returns the workers currently in TRAINING state.
func (c *Coordinator) TrainingWorkers() []int {
	var out []int
	for w, s := range c.states {
		if s == Training {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) idleWorkers() []int {
	var out []int
	for w, s := range c.states {
		if s == Idle {
			out = append(out, w)
		}
	}
	return out
}

func (c *Coordinator) emit(a Action) Action {
	switch a.Kind {
	case StartTraining:
		c.Sessions++
	case PreemptTraining:
		c.Preemptions++
	}
	return a
}

// WorkerIdle processes a BUSY→IDLE transition (the worker's rollout
// requests all finished). When the idle pool reaches the threshold, the
// coordinator promotes idle workers to training: the first eligible
// worker becomes the session leader (it sets up the session); if a
// session is already running, the new worker joins its data-parallel
// group.
func (c *Coordinator) WorkerIdle(worker int, now time.Duration) []Action {
	switch c.states[worker] {
	case Training:
		// A training worker cannot go idle without preemption first.
		return nil
	case Dead:
		// A failed worker must be recovered explicitly before rejoining
		// the idle pool.
		return nil
	}
	c.states[worker] = Idle

	idle := c.idleWorkers()
	if c.leader >= 0 {
		// Session running: the idle worker joins immediately.
		c.states[worker] = Training
		return []Action{c.emit(Action{Kind: JoinTraining, Workers: []int{worker}, Leader: c.leader, At: now})}
	}
	if len(idle) < c.cfg.IdleThreshold {
		return nil
	}
	// Leader election: the first (lowest-id) eligible worker.
	leader := idle[0]
	c.leader = leader
	for _, w := range idle {
		c.states[w] = Training
	}
	return []Action{c.emit(Action{Kind: StartTraining, Workers: idle, Leader: leader, At: now})}
}

// WorkerBusy processes a transition back to rollout duty (e.g. the next
// RL step starting on this worker).
func (c *Coordinator) WorkerBusy(worker int, now time.Duration) []Action {
	if c.states[worker] == Dead {
		// A failed worker cannot be promoted back to duty by load
		// pressure; WorkerRecovered is the only way out.
		return nil
	}
	var actions []Action
	if c.states[worker] == Training {
		actions = append(actions, c.emit(Action{
			Kind: PreemptTraining, Workers: []int{worker}, Leader: c.leader, At: now,
		}))
		if worker == c.leader {
			c.migrateLeader(now, &actions)
		}
	}
	c.states[worker] = Busy
	return actions
}

// WorkerDead processes a health-monitor verdict that the worker crashed or
// hung. If the worker was mid-training the session is preempted (and the
// leadership migrated) exactly as for a busy preemption, so a shard failure
// never strands a training session.
func (c *Coordinator) WorkerDead(worker int, now time.Duration) []Action {
	if c.states[worker] == Dead {
		return nil
	}
	var actions []Action
	if c.states[worker] == Training {
		actions = append(actions, c.emit(Action{
			Kind: PreemptTraining, Workers: []int{worker}, Leader: c.leader, At: now,
		}))
		if worker == c.leader {
			c.migrateLeader(now, &actions)
		}
	}
	c.states[worker] = Dead
	return actions
}

// WorkerRecovered returns a dead worker to BUSY (serving) duty after
// revival. It is a no-op for healthy workers.
func (c *Coordinator) WorkerRecovered(worker int, now time.Duration) []Action {
	if c.states[worker] != Dead {
		return nil
	}
	c.states[worker] = Busy
	return nil
}

// migrateLeader hands the session to another training worker or closes it.
func (c *Coordinator) migrateLeader(now time.Duration, actions *[]Action) {
	for w, s := range c.states {
		if s == Training && w != c.leader {
			c.leader = w
			return
		}
	}
	c.leader = -1
}

// RolloutComplete halts any ongoing drafter training for the step barrier:
// the coordinator performs a graceful shutdown so the training state is
// checkpointed before the next RL stage claims the GPUs.
func (c *Coordinator) RolloutComplete(now time.Duration) []Action {
	training := c.TrainingWorkers()
	c.leader = -1
	if len(training) == 0 {
		return nil
	}
	for _, w := range training {
		c.states[w] = Idle
	}
	return []Action{c.emit(Action{Kind: PreemptTraining, Workers: training, Leader: -1, At: now})}
}

// Reset returns all workers to BUSY for the next RL step's rollout. Dead
// workers are left as-is: a step barrier does not revive a failed shard.
func (c *Coordinator) Reset() {
	for w := range c.states {
		if c.states[w] == Dead {
			continue
		}
		c.states[w] = Busy
	}
	c.leader = -1
}
