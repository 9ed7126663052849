// Package core composes the full reasoning-RL training systems evaluated
// in the paper: TLT (adaptive drafter + adaptive rollout engine), TLT-Base
// (model-free drafter only), a VeRL-style colocated synchronous baseline,
// and an Open-R1-style disaggregated baseline. A System owns the policy,
// reference model, drafter, worker devices, coordinator, and spot trainer,
// and advances the GRPO pipeline step by step under the virtual cluster
// clock.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fastrl/internal/coordinator"
	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/reward"
	"fastrl/internal/rl"
	"fastrl/internal/sched"
	"fastrl/internal/spot"
	"fastrl/internal/tokenizer"
	"fastrl/internal/vclock"
	"fastrl/internal/workload"
)

// Kind enumerates the system designs under evaluation (Fig. 11).
type Kind int

const (
	// TLT is the full system: adaptive (learned) drafter with spot
	// training plus the adaptive rollout engine.
	TLT Kind = iota
	// TLTBase disables the adaptive drafter and uses the model-free
	// n-gram drafter (the paper's TLT-Base ablation).
	TLTBase
	// VeRL is the colocated synchronous baseline (GPU time-sharing, no
	// speculative decoding).
	VeRL
	// OpenR1 is the disaggregated baseline: rollout and training run on
	// separate halves of the cluster with batch-coupled generation.
	OpenR1
)

func (k Kind) String() string {
	switch k {
	case TLT:
		return "TLT"
	case TLTBase:
		return "TLT-Base"
	case VeRL:
		return "VeRL"
	case OpenR1:
		return "Open-R1"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ClusterConfig describes the hardware.
type ClusterConfig struct {
	GPU         gpu.Spec
	Nodes       int
	GPUsPerNode int
	// TP is the tensor-parallel degree of one rollout worker.
	TP int
}

// Workers returns the number of rollout workers (TP groups).
func (c ClusterConfig) Workers() int {
	w := c.Nodes * c.GPUsPerNode / c.TP
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultCluster mirrors the paper's testbed shape at 1 node.
func DefaultCluster(spec gpu.Spec, nodes, tp int) ClusterConfig {
	return ClusterConfig{GPU: spec, Nodes: nodes, GPUsPerNode: 8, TP: tp}
}

// Config assembles a full system.
type Config struct {
	Kind    Kind
	Cluster ClusterConfig
	// Arch is the target model architecture (cost model).
	Arch gpu.Arch
	// RL configures the GRPO pipeline.
	RL rl.Config
	// MaxNew caps response lengths.
	MaxNew int
	// TaskPool / Seed drive workload generation.
	TaskPool int
	Seed     int64
	// SDThreshold is the elastic SD activation bound (TLT variants).
	SDThreshold int
	// IdleThreshold is the coordinator's spot-training trigger.
	IdleThreshold int
	// DrafterTrainEvery trains the drafter on the spot every N RL steps
	// (paper §6.4: every 10 steps suffices; default 1).
	DrafterTrainEvery int
	// DisableSpot turns off spot training (ablation: TLT with a frozen
	// warm-up drafter).
	DisableSpot bool
	// GraphPlan overrides the CUDAGraph capture plan.
	GraphPlan string
	// ModelBuckets overrides the target LM's feature buckets (tests use
	// smaller tables).
	ModelBuckets int
	// DisableLengthPrior turns off the synthetic length-prior bias. The
	// prior shapes realistic long-tail workloads for performance
	// experiments, but biased sampling is off-policy for the learner, so
	// learning-dynamics experiments (Fig. 12) disable it and let lengths
	// emerge from the model alone.
	DisableLengthPrior bool
	// EarlyStopTail truncates each worker's rollout once this few
	// requests remain — the premature-termination alternative the paper
	// contrasts TLT with (§7, §8): it trades training quality for speed,
	// whereas TLT is lossless. Zero disables it.
	EarlyStopTail int
	// EvalEvery runs a held-out greedy evaluation every N steps (the
	// paper's periodic evaluations, every 5 steps on its trace). Zero
	// disables evaluation.
	EvalEvery int
	// EvalTasks is the held-out evaluation set size (default 32).
	EvalTasks int
}

// DefaultConfig returns a TLT system on one H100 node.
func DefaultConfig() Config {
	return Config{
		Kind:              TLT,
		Cluster:           DefaultCluster(gpu.H100, 1, 2),
		Arch:              gpu.Qwen7B,
		RL:                rl.DefaultConfig(),
		MaxNew:            512,
		TaskPool:          64,
		Seed:              1,
		SDThreshold:       32,
		IdleThreshold:     1,
		DrafterTrainEvery: 1,
	}
}

// System is a runnable RL training system.
type System struct {
	Cfg      Config
	Tk       *tokenizer.Tokenizer
	Target   *model.LM
	Trainer  *rl.Trainer
	Tasks    *workload.TaskGen
	Sampler  workload.LengthSampler
	Verifier *reward.Verifier

	// Drafters: learned (TLT) or model-free (TLT-Base); nil for baselines.
	Eagle *draft.Eagle
	NGram *draft.NGram

	Coord  *coordinator.Coordinator
	Buffer *spot.DataBuffer
	Spot   *spot.Trainer

	// Clock is the cluster-wide virtual clock.
	Clock *vclock.Clock

	rng     *rand.Rand
	step    int
	evalGen *workload.TaskGen
}

// New builds a system.
func New(cfg Config) (*System, error) {
	if cfg.Cluster.Workers() < 1 {
		return nil, fmt.Errorf("core: empty cluster")
	}
	if cfg.MaxNew < 8 {
		return nil, fmt.Errorf("core: MaxNew %d too small", cfg.MaxNew)
	}
	if cfg.DrafterTrainEvery < 1 {
		cfg.DrafterTrainEvery = 1
	}
	tk := tokenizer.New()
	mcfg := model.DefaultConfig(tk.VocabSize(), cfg.Arch)
	if cfg.ModelBuckets > 0 {
		mcfg.Buckets = cfg.ModelBuckets
	}
	mcfg.Seed ^= cfg.Seed
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	target := model.New(mcfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})

	s := &System{
		Cfg:      cfg,
		Tk:       tk,
		Target:   target,
		Tasks:    workload.NewTaskGen(tk, cfg.TaskPool, cfg.Seed),
		Sampler:  workload.DefaultLengthSampler(cfg.MaxNew),
		Verifier: reward.NewVerifier(tk),
		Clock:    &vclock.Clock{},
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x715)),
	}
	s.Trainer = rl.NewTrainer(cfg.RL, target, s.Verifier)

	switch cfg.Kind {
	case TLT:
		s.Eagle = draft.NewEagle(draft.EagleDefault(tk.VocabSize(), cfg.Arch))
		coord, err := coordinator.New(coordinator.Config{
			Workers: cfg.Cluster.Workers(), IdleThreshold: cfg.IdleThreshold,
		})
		if err != nil {
			return nil, err
		}
		s.Coord = coord
		s.Buffer = spot.NewDataBuffer(4096)
		dev := s.workerDevice()
		s.Spot = spot.NewTrainer(spot.DefaultTrainerConfig(dev, cfg.Arch), s.Eagle, target, s.Buffer, nil)
	case TLTBase:
		s.NGram = draft.NewNGram(tk.VocabSize(), 1, 3)
	}
	return s, nil
}

func (s *System) workerDevice() *gpu.Device {
	return gpu.NewDevice(s.Cfg.Cluster.GPU, s.Cfg.Cluster.TP)
}

// drafter returns the engine-facing drafter for the system kind.
func (s *System) drafter() draft.Drafter {
	switch s.Cfg.Kind {
	case TLT:
		return s.Eagle
	case TLTBase:
		return s.NGram
	}
	return nil
}

// WarmUpDrafter pre-trains the learned drafter on base-model rollouts,
// the paper's OpenThoughts warm-up phase. No-op for other system kinds.
func (s *System) WarmUpDrafter(prompts, epochs int) {
	if s.Eagle == nil {
		return
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed ^ 0xbeef))
	var examples []*draft.Example
	for _, task := range s.Tasks.SampleSeeded(prompts, s.Cfg.Seed^0xbeef) {
		seq := model.Generate(s.Target, task.Prompt, nil, s.Cfg.RL.Temp, 64, s.Tk.Eos(), rng)
		examples = append(examples,
			draft.HarvestExamples(s.Target, model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, true)...)
	}
	for e := 0; e < epochs; e++ {
		s.Eagle.Train(examples, nil, rng)
	}
}

// StepStats records one RL step's timing and learning metrics.
type StepStats struct {
	Step int
	// Stage durations (cluster wall time on the virtual clock).
	Rollout   time.Duration
	Inference time.Duration
	Training  time.Duration
	Other     time.Duration
	StepTime  time.Duration
	// Tokens processed (prompts + responses of the global batch).
	Tokens int
	// Throughput is the paper's end-to-end metric: tokens per second.
	Throughput float64
	// AcceptLen is the mean SD accept length (0 when SD never ran).
	AcceptLen float64
	// SpotBatches / SpotTime account drafter spot training.
	SpotBatches int
	SpotTime    time.Duration
	// IdleTime is GPU-worker idle time during rollout left unused.
	IdleTime time.Duration
	// Summary carries the learning metrics.
	Summary rl.StepSummary
	// EvalAccuracy is the held-out greedy accuracy when this step ran an
	// evaluation (negative otherwise); EvalTime its cluster cost.
	EvalAccuracy float64
	EvalTime     time.Duration
	// WorkerFinish are per-worker rollout finish offsets.
	WorkerFinish []time.Duration
	// RespLens are the response lengths of the global batch.
	RespLens []int
	// Profiles are the per-worker engine iteration profiles.
	Profiles [][]sched.StepProfile
}

// Step advances one full RL step.
func (s *System) Step() (StepStats, error) {
	s.step++
	stats := StepStats{Step: s.step}
	start := s.Clock.Now()

	// The step workload is a pure function of (seed, step): every system
	// kind sees the identical tasks and length priors, so throughput
	// comparisons are workload-controlled.
	tasks := s.Tasks.SampleSeeded(s.Cfg.RL.PromptsPerStep, s.Cfg.Seed^int64(s.step)*2654435761)
	groups, err := s.runRollout(tasks, &stats)
	if err != nil {
		return stats, err
	}

	// ---- Inference stage: prefill responses through policy + reference.
	s.Trainer.ScoreGroups(groups)
	s.Trainer.ComputeAdvantages(groups)
	inferTokens := rl.InferenceTokens(groups)
	stats.Inference = s.prefillCost(2 * inferTokens) // policy + ref
	s.Clock.Advance(stats.Inference)

	// TLT: harvest drafter training data from the inference prefill (the
	// hidden states are produced here anyway; the paper caches them).
	if s.Cfg.Kind == TLT && !s.Cfg.DisableSpot {
		for _, g := range groups {
			for _, r := range g {
				exs := draft.HarvestExamples(s.Target,
					model.Context{Tokens: r.Full, PromptLen: r.PromptLen}, true)
				s.Buffer.Add(spot.Sequence{Examples: exs})
			}
		}
	}

	// ---- Training stage: policy update (data parallel over workers).
	kl := s.Trainer.ApplyUpdates(groups)
	stats.Training = s.trainCost(inferTokens)
	s.Clock.Advance(stats.Training)

	// ---- Stage-transition overheads.
	stats.Other = s.transitionCost()
	s.Clock.Advance(stats.Other)

	// TLT: rotate the DataBuffer at the step barrier.
	if s.Cfg.Kind == TLT {
		s.Buffer.StepEnd()
		s.Coord.Reset()
	}

	// Periodic held-out evaluation (greedy decoding on the eval pool).
	stats.EvalAccuracy = -1
	if s.Cfg.EvalEvery > 0 && s.step%s.Cfg.EvalEvery == 0 {
		acc, cost := s.Evaluate()
		stats.EvalAccuracy = acc
		stats.EvalTime = cost
		stats.Other += cost
		s.Clock.Advance(cost)
	}

	stats.Summary = rl.Summarize(s.step, groups, kl)
	var tokens int
	for _, g := range groups {
		for _, r := range g {
			tokens += len(r.Full)
		}
	}
	stats.Tokens = tokens
	stats.StepTime = s.Clock.Now() - start
	if stats.StepTime > 0 {
		stats.Throughput = float64(tokens) / stats.StepTime.Seconds()
	}
	return stats, nil
}

// runRollout executes the rollout stage across workers and, for TLT,
// drafter spot training on workers as they go idle.
func (s *System) runRollout(tasks []workload.Task, stats *StepStats) ([][]*rl.Rollout, error) {
	W := s.Cfg.Cluster.Workers()
	rolloutWorkers := W
	if s.Cfg.Kind == OpenR1 {
		// Disaggregated placement: half the cluster serves rollout.
		rolloutWorkers = (W + 1) / 2
	}

	// Build requests: one per (task, group member), assigned round-robin.
	type slot struct {
		task   workload.Task
		group  int
		member int
		req    *sched.Request
	}
	var slots []*slot
	id := 0
	priorRng := rand.New(rand.NewSource(s.Cfg.Seed ^ int64(s.step)*1099511628211))
	for gi, task := range tasks {
		for m := 0; m < s.Cfg.RL.GroupSize; m++ {
			prior := workload.PriorFor(task, s.Sampler, priorRng)
			if s.Cfg.DisableLengthPrior {
				prior = workload.LengthPrior{}
			}
			req := sched.NewRequest(id, task.Prompt, prior.HardCap(s.Cfg.MaxNew), prior, s.Tk.Answer(), s.Tk.Eos())
			slots = append(slots, &slot{task: task, group: gi, member: m, req: req})
			id++
		}
	}

	perWorker := make([][]*sched.Request, rolloutWorkers)
	for i, sl := range slots {
		w := i % rolloutWorkers
		perWorker[w] = append(perWorker[w], sl.req)
	}

	// Run each worker's engine; collect finish times and stats.
	finishes := make([]time.Duration, rolloutWorkers)
	var acceptSum float64
	var acceptN int
	for w := 0; w < rolloutWorkers; w++ {
		eng, err := s.newEngine()
		if err != nil {
			return nil, err
		}
		wrng := rand.New(rand.NewSource(s.Cfg.Seed ^ int64(s.step)<<20 ^ int64(w)))
		rs := eng.Run(perWorker[w], wrng, 0)
		eng.Close()
		finishes[w] = rs.Elapsed
		stats.Profiles = append(stats.Profiles, rs.Profile)
		if rs.AcceptRounds > 0 {
			acceptSum += rs.MeanAcceptLen()
			acceptN++
		}
	}
	if acceptN > 0 {
		stats.AcceptLen = acceptSum / float64(acceptN)
	}
	stats.WorkerFinish = append([]time.Duration(nil), finishes...)

	rolloutEnd := time.Duration(0)
	for _, f := range finishes {
		if f > rolloutEnd {
			rolloutEnd = f
		}
	}
	stats.Rollout = rolloutEnd
	s.Clock.Advance(rolloutEnd)

	// Idle accounting + spot training in the tail.
	order := make([]int, rolloutWorkers)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return finishes[order[i]] < finishes[order[j]] })
	var idle time.Duration
	for _, w := range order[:len(order)-1] {
		idle += rolloutEnd - finishes[w]
	}
	// Disaggregated baseline: the training half idles through rollout.
	if s.Cfg.Kind == OpenR1 {
		idle += time.Duration(W-rolloutWorkers) * rolloutEnd
	}

	if s.Cfg.Kind == TLT && !s.Cfg.DisableSpot && s.step%s.Cfg.DrafterTrainEvery == 0 {
		idle -= s.runSpotTraining(order, finishes, rolloutEnd, stats)
	}
	if idle < 0 {
		idle = 0
	}
	stats.IdleTime = idle

	// Reassemble groups.
	groups := make([][]*rl.Rollout, len(tasks))
	for _, sl := range slots {
		stats.RespLens = append(stats.RespLens, sl.req.Generated())
		groups[sl.group] = append(groups[sl.group], &rl.Rollout{
			Task:      sl.task,
			Full:      sl.req.Tokens,
			Response:  sl.req.Response(),
			PromptLen: len(sl.req.Prompt),
		})
	}
	return groups, nil
}

// runSpotTraining drives the coordinator over worker-idle events and
// spends the granted windows on drafter training. Returns the idle time
// consumed.
func (s *System) runSpotTraining(order []int, finishes []time.Duration, rolloutEnd time.Duration, stats *StepStats) time.Duration {
	var used time.Duration
	trainRng := rand.New(rand.NewSource(s.Cfg.Seed ^ int64(s.step)*7919))
	for _, w := range order {
		if finishes[w] >= rolloutEnd {
			continue
		}
		actions := s.Coord.WorkerIdle(w, finishes[w])
		for _, a := range actions {
			if a.Kind != coordinator.StartTraining && a.Kind != coordinator.JoinTraining {
				continue
			}
			for _, tw := range a.Workers {
				window := rolloutEnd - finishes[tw]
				if window <= 0 {
					continue
				}
				ws := s.Spot.RunWindow(window, trainRng)
				stats.SpotBatches += ws.Batches
				stats.SpotTime += ws.Used
				used += ws.Used
			}
		}
	}
	// The rollout barrier preempts any ongoing session.
	s.Coord.RolloutComplete(rolloutEnd)
	return used
}

// newEngine builds a worker's rollout engine for the system kind.
func (s *System) newEngine() (*sched.Batch, error) {
	dev := s.workerDevice()
	cfg := sched.DefaultConfig(dev)
	cfg.Temp = s.Cfg.RL.Temp
	if s.Cfg.GraphPlan != "" {
		cfg.GraphPlan = s.Cfg.GraphPlan
	}
	cfg.StopAtRemaining = s.Cfg.EarlyStopTail
	switch s.Cfg.Kind {
	case TLT, TLTBase:
		cfg.SDThreshold = s.Cfg.SDThreshold
	case VeRL:
		cfg.SDThreshold = -1
	case OpenR1:
		cfg.SDThreshold = -1
		// Batch-coupled generation: no continuous batching means higher
		// per-iteration host overhead and no early-exit gains; modelled
		// as a fixed padding factor in engine host overhead.
		cfg.HostOverhead *= 3
	}
	return sched.New(cfg, s.Target, s.drafter())
}

// prefillCost models the inference stage: compute-bound prefill of the
// given token count, data parallel across all workers.
func (s *System) prefillCost(tokens int) time.Duration {
	W := s.Cfg.Cluster.Workers()
	if s.Cfg.Kind == OpenR1 {
		W = (W + 1) / 2 // inference shares the training half
	}
	per := (tokens + W - 1) / W
	dev := s.workerDevice()
	return dev.Forward(s.Cfg.Arch, gpu.ForwardOpts{Tokens: per, KVTokens: per}).Total()
}

// trainCost models the training stage: forward+backward+optimiser over
// the response tokens, data parallel with a gradient-sync penalty.
func (s *System) trainCost(tokens int) time.Duration {
	W := s.Cfg.Cluster.Workers()
	if s.Cfg.Kind == OpenR1 {
		W = (W + 1) / 2
	}
	per := (tokens + W - 1) / W
	dev := s.workerDevice()
	cost := dev.TrainStepCost(s.Cfg.Arch, per)
	return cost + cost/10 // all-reduce overhead
}

// transitionCost models stage-transition overheads: weight resharding
// between rollout and training engines (VeRL-style colocation), weight
// broadcast to the disaggregated serving fleet (Open-R1), and TLT's
// drafter weight update (<1% of step time, per the paper).
func (s *System) transitionCost() time.Duration {
	wb := s.Cfg.Arch.WeightBytes()
	nvlink := 450e9 // effective intra-node bytes/sec
	ib := 40e9      // effective inter-node bytes/sec
	var t time.Duration
	switch s.Cfg.Kind {
	case OpenR1:
		// Full weight broadcast across the disaggregated halves.
		t = time.Duration(wb / ib * float64(time.Second))
	default:
		// Colocated resharding: two passes over the weights via NVLink.
		t = time.Duration(2 * wb / float64(s.Cfg.Cluster.Workers()) / nvlink * float64(time.Second))
	}
	if s.Cfg.Kind == TLT {
		// Drafter weight update into the rollout engines.
		dw := gpu.DraftArch(s.Cfg.Arch).WeightBytes()
		t += time.Duration(dw / nvlink * float64(time.Second))
	}
	return t
}

// CheckMemory estimates per-GPU memory demand and returns an error when
// the configuration cannot fit (Table 3's OOM entries).
func (s *System) CheckMemory() error {
	c := s.Cfg.Cluster
	arch := s.Cfg.Arch
	weights := arch.WeightBytes() / float64(c.TP)
	// Optimizer states colocate on the same GPUs for VeRL/TLT (mixed
	// precision Adam: ~6x weight bytes), sharded across all workers.
	optim := 6 * arch.WeightBytes() / float64(c.Workers()*c.TP)
	// KV eviction lets the engine queue requests, but progress requires a
	// minimum viable resident batch of max-length sequences.
	const minResident = 4
	reqs := s.Cfg.RL.PromptsPerStep * s.Cfg.RL.GroupSize
	perWorker := (reqs + c.Workers() - 1) / c.Workers()
	resident := perWorker
	if resident > minResident {
		resident = minResident
	}
	kv := arch.KVBytesPerToken() * float64(s.Cfg.MaxNew) * float64(resident) / float64(c.TP)
	demand := weights + optim + kv + 4e9 // workspace
	if demand > c.GPU.MemGB*1e9 {
		return fmt.Errorf("core: OOM: %.1f GB demand exceeds %s %.0f GB (weights %.1f, optim %.1f, kv %.1f)",
			demand/1e9, c.GPU.Name, c.GPU.MemGB, weights/1e9, optim/1e9, kv/1e9)
	}
	return nil
}

// Evaluate runs a greedy held-out evaluation, returning accuracy and the
// cluster time it costs (generation charged to the rollout cost model).
func (s *System) Evaluate() (float64, time.Duration) {
	n := s.Cfg.EvalTasks
	if n <= 0 {
		n = 32
	}
	if s.evalGen == nil {
		s.evalGen = workload.HeldOut(s.Tk, n, s.Cfg.Seed)
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed ^ 0xe7a1))
	tasks := s.evalGen.Pool()
	correct := 0
	var tokens int
	for _, task := range tasks {
		seq := model.Generate(s.Target, task.Prompt, nil, 0, s.Cfg.MaxNew/2, s.Tk.Eos(), rng)
		tokens += len(seq)
		if d, ok := s.Verifier.ExtractAnswer(seq[len(task.Prompt):]); ok && d == task.Answer {
			correct++
		}
	}
	// Evaluation decodes greedily at batch = tasks/workers: charge it as
	// sequential decode steps at that batch size.
	W := s.Cfg.Cluster.Workers()
	perWorker := (len(tasks) + W - 1) / W
	dev := s.workerDevice()
	meanLen := tokens / len(tasks)
	stepCost := dev.Forward(s.Cfg.Arch, gpu.ForwardOpts{Tokens: perWorker, KVTokens: perWorker * meanLen, CUDAGraph: true}).Total()
	cost := time.Duration(meanLen) * stepCost
	return float64(correct) / float64(len(tasks)), cost
}

// RefreshNGram resets the model-free drafter between steps so retrieval
// reflects the current policy's phrasing (TLT-Base bookkeeping).
func (s *System) RefreshNGram() {
	if s.NGram != nil {
		s.NGram.Reset()
	}
}
