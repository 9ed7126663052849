package cluster

import (
	"math"
	"sync"
	"time"

	"fastrl/internal/coordinator"
)

// ScalerConfig parameterises the elastic scaler.
type ScalerConfig struct {
	// TargetPerShard is the offered load (requests per observation window)
	// one serving shard is sized for; the scaler serves
	// ceil(offered / TargetPerShard) shards, clamped to [1, Shards] so the
	// router always has a live shard. Default 8.
	TargetPerShard float64
}

func (s ScalerConfig) withDefaults() ScalerConfig {
	if s.TargetPerShard <= 0 {
		s.TargetPerShard = 8
	}
	return s
}

// idleThreshold is the coordinator's idle-pool size before a drafter
// training session starts (paper §4.2): two demoted shards pool into one
// spot-training session.
const idleThreshold = 2

// Scaler drives shards between SERVING (coordinator.Busy), IDLE, and
// TRAINING through the coordinator's worker state machine: demoted shards
// go idle and are promoted by the coordinator into drafter spot-training
// sessions (with leader election), and rising load preempts training —
// the same start/join/preempt protocol the paper runs over rollout
// workers, applied to serving capacity.
type Scaler struct {
	c     *Cluster
	cfg   ScalerConfig
	mu    sync.Mutex
	coord *coordinator.Coordinator
	// lastNow timestamps the previous observation for state-time accrual.
	lastNow  time.Duration
	observed bool
}

func newScaler(c *Cluster, cfg ScalerConfig) (*Scaler, error) {
	coord, err := coordinator.New(coordinator.Config{
		Workers:       len(c.shards),
		IdleThreshold: idleThreshold,
	})
	if err != nil {
		return nil, err
	}
	return &Scaler{c: c, cfg: cfg, coord: coord}, nil
}

// Observe processes one observation window ending at now: offered is the
// load (requests) that arrived during the window. It resizes the serving
// set and returns the coordinator actions the resize emitted
// (start/join/preempt-training directives for the affected shards).
func (s *Scaler) Observe(offered float64, now time.Duration) []coordinator.Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accrueLocked(now)

	target := max(int(math.Ceil(offered/s.cfg.TargetPerShard)), 1)
	if target > len(s.c.shards) {
		target = len(s.c.shards)
	}

	var actions []coordinator.Action
	serving := 0
	for _, sh := range s.c.shards {
		if s.coord.State(sh.id) == coordinator.Busy {
			serving++
		}
	}
	switch {
	case serving < target:
		// Promote lowest-ID non-serving shards back to traffic; the
		// coordinator preempts (and checkpoints) any training they were in.
		for _, sh := range s.c.shards {
			if serving == target {
				break
			}
			// Only Idle/Training shards are promotable: WorkerBusy is a
			// no-op on Dead shards, so counting them as serving would
			// silently under-provision the live set.
			if st := s.coord.State(sh.id); st == coordinator.Idle || st == coordinator.Training {
				actions = append(actions, s.coord.WorkerBusy(sh.id, now)...)
				serving++
			}
		}
	case serving > target:
		// Demote highest-ID serving shards: they go idle, and the
		// coordinator promotes the idle pool into a training session once
		// the threshold is met. Low IDs stay serving so prefix-affinity
		// keys move as little as possible.
		for i := len(s.c.shards) - 1; i >= 0 && serving > target; i-- {
			sh := s.c.shards[i]
			if s.coord.State(sh.id) == coordinator.Busy {
				actions = append(actions, s.coord.WorkerIdle(sh.id, now)...)
				serving--
			}
		}
	}
	for _, sh := range s.c.shards {
		sh.state.Store(int32(s.coord.State(sh.id)))
	}
	return actions
}

// markDead records a shard's death in the coordinator (preempting any
// training it led or joined) and mirrors the state for the router, which
// stops picking it on the very next PickShard.
func (s *Scaler) markDead(id int, now time.Duration) []coordinator.Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	actions := s.coord.WorkerDead(id, now)
	s.c.shards[id].state.Store(int32(s.coord.State(id)))
	return actions
}

// markRecovered returns a dead shard to the serving set.
func (s *Scaler) markRecovered(id int, now time.Duration) []coordinator.Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	actions := s.coord.WorkerRecovered(id, now)
	s.c.shards[id].state.Store(int32(s.coord.State(id)))
	return actions
}

// accrueLocked charges the time since the last observation to each
// shard's current state.
func (s *Scaler) accrueLocked(now time.Duration) {
	if s.observed && now > s.lastNow {
		delta := now - s.lastNow
		for _, sh := range s.c.shards {
			sh.stateTime[s.coord.State(sh.id)] += delta
		}
	}
	s.lastNow = now
	s.observed = true
}

// TrainingShards returns the IDs of shards currently in drafter training.
func (s *Scaler) TrainingShards() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord.TrainingWorkers()
}

// ServingShards returns the IDs of shards currently accepting traffic.
func (s *Scaler) ServingShards() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for _, sh := range s.c.shards {
		if s.coord.State(sh.id) == coordinator.Busy {
			out = append(out, sh.id)
		}
	}
	return out
}

// Leader returns the active training-session leader shard, or -1.
func (s *Scaler) Leader() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord.Leader()
}

// utilisations returns each shard's fraction of observed time spent
// SERVING (zero before two observations).
func (s *Scaler) utilisations() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.c.shards))
	for i, sh := range s.c.shards {
		var total time.Duration
		for _, d := range sh.stateTime {
			total += d
		}
		if total > 0 {
			out[i] = float64(sh.stateTime[coordinator.Busy]) / float64(total)
		}
	}
	return out
}

// sessionCounts returns the coordinator's training sessions started and
// trainings preempted.
func (s *Scaler) sessionCounts() (sessions, preemptions int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord.Sessions, s.coord.Preemptions
}
