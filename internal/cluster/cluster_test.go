package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"fastrl/internal/coordinator"
	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/sched"
	"fastrl/internal/serving"
	"fastrl/internal/tokenizer"
	"fastrl/internal/workload"
)

// clusterSetup builds a small target + trained Eagle drafter pair shared
// by the cluster tests (the serving package's setup, scaled down).
func clusterSetup(t testing.TB) (*model.LM, *draft.Eagle, *tokenizer.Tokenizer, *workload.TaskGen) {
	t.Helper()
	tk := tokenizer.New()
	cfg := model.DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	cfg.Buckets = 1 << 10
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	target := model.New(cfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	gen := workload.NewTaskGen(tk, 32, 9)

	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(10))
	var examples []*draft.Example
	for _, task := range gen.SampleSeeded(20, 11) {
		seq := model.Generate(target, task.Prompt, nil, 0.9, 40, tk.Eos(), rng)
		examples = append(examples, draft.HarvestExamples(target,
			model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, true)...)
	}
	for i := 0; i < 2; i++ {
		e.Train(examples, nil, rng)
	}
	return target, e, tk, gen
}

func clusterConfig(tk *tokenizer.Tokenizer, shards, replicas int) Config {
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	return Config{
		Shards: shards,
		Shard:  serving.Config{Engine: ecfg, Replicas: replicas, AnswerID: tk.Answer(), EosID: tk.Eos()},
	}
}

func TestClusterServeBasic(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cl, err := New(clusterConfig(tk, 2, 1), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	task := gen.Pool()[0]
	resp, err := cl.Serve(context.Background(), Request{Prompt: task.Prompt, MaxNew: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tokens) == 0 {
		t.Fatal("empty completion")
	}
	if resp.Shard < 0 || resp.Shard >= cl.Shards() {
		t.Fatalf("shard %d out of range", resp.Shard)
	}
	if resp.AcceptLen < 1 {
		t.Fatalf("SD accept length %v", resp.AcceptLen)
	}
	st := cl.Stats()
	if st.Served != 1 || st.Shed != 0 {
		t.Fatalf("stats served=%d shed=%d, want 1/0", st.Served, st.Shed)
	}
	if st.P50 <= 0 {
		t.Fatalf("p50 = %v", st.P50)
	}
	if st.MeanAcceptLen < 1 {
		t.Fatalf("cluster accept length %v", st.MeanAcceptLen)
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	target, e, tk, _ := clusterSetup(t)
	if _, err := New(Config{}, target, e); err == nil {
		t.Fatal("expected error for zero shards")
	}
	cfg := clusterConfig(tk, 2, 1)
	cfg.Shard.Engine.Device = nil
	if _, err := New(cfg, target, e); err == nil {
		t.Fatal("expected error for missing device")
	}
}

// TestClusterDeterministic pins the acceptance criterion that cluster
// serving output is deterministic under fixed seeds: the same arrival
// trace replayed through a fresh cluster (greedy decoding, affinity
// routing) produces token-identical responses on identical shards.
func TestClusterDeterministic(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   2 * time.Second,
		RatePerSec: 8,
		Tasks:      len(gen.Pool()),
		Lengths:    workload.DefaultLengthSampler(48),
		Seed:       5,
	})
	if len(arrivals) < 4 {
		t.Fatalf("trace too small: %d arrivals", len(arrivals))
	}

	replay := func() ([][]int, []int) {
		cfg := clusterConfig(tk, 3, 1)
		cfg.Shard.Engine.Temp = 0
		cfg.Policy = NewPrefixAffinity(4)
		cl, err := New(cfg, target, e)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		var tokens [][]int
		var shards []int
		for _, a := range arrivals {
			resp, err := cl.Serve(context.Background(), Request{
				Prompt: gen.Pool()[a.Task].Prompt,
				MaxNew: 32,
				Seed:   a.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			tokens = append(tokens, resp.Tokens)
			shards = append(shards, resp.Shard)
		}
		return tokens, shards
	}

	tokA, shA := replay()
	tokB, shB := replay()
	for i := range tokA {
		if shA[i] != shB[i] {
			t.Fatalf("request %d routed to shard %d then %d", i, shA[i], shB[i])
		}
		if len(tokA[i]) != len(tokB[i]) {
			t.Fatalf("request %d: %d vs %d tokens", i, len(tokA[i]), len(tokB[i]))
		}
		for j := range tokA[i] {
			if tokA[i][j] != tokB[i][j] {
				t.Fatalf("request %d token %d differs", i, j)
			}
		}
	}
}

// TestScalerElasticity drives the scaler directly: a lull demotes shards
// into a coordinator-run training session, a burst preempts it back to
// serving, and the state-time accounting reflects the sweep.
func TestScalerElasticity(t *testing.T) {
	target, e, tk, _ := clusterSetup(t)
	cfg := clusterConfig(tk, 4, 1)
	cfg.Scaler = ScalerConfig{TargetPerShard: 10}
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	sc := cl.Scaler()

	if got := len(sc.ServingShards()); got != 4 {
		t.Fatalf("initial serving shards = %d, want 4", got)
	}

	// Lull: offered load worth one shard → three demotions, and with
	// idleThreshold 2 the idle pool becomes a training session.
	actions := sc.Observe(5, 1*time.Second)
	if got := len(sc.ServingShards()); got != 1 {
		t.Fatalf("after lull serving shards = %d, want 1", got)
	}
	training := sc.TrainingShards()
	if len(training) != 3 {
		t.Fatalf("training shards = %v, want 3", training)
	}
	if sc.Leader() < 0 {
		t.Fatal("no training leader elected")
	}
	var sawStart bool
	for _, a := range actions {
		if a.Kind == coordinator.StartTraining {
			sawStart = true
		}
	}
	if !sawStart {
		t.Fatalf("no StartTraining in actions %v", actions)
	}

	// The router must only pick the serving shard now.
	for i := 0; i < 16; i++ {
		if got := cl.PickShard([]int{i}); got != 0 {
			t.Fatalf("routed to non-serving shard %d", got)
		}
	}

	// Burst: full-cluster load preempts every training shard.
	actions = sc.Observe(40, 2*time.Second)
	if got := len(sc.ServingShards()); got != 4 {
		t.Fatalf("after burst serving shards = %d, want 4", got)
	}
	if len(sc.TrainingShards()) != 0 {
		t.Fatal("training survived the burst")
	}
	var sawPreempt bool
	for _, a := range actions {
		if a.Kind == coordinator.PreemptTraining {
			sawPreempt = true
		}
	}
	if !sawPreempt {
		t.Fatalf("no PreemptTraining in actions %v", actions)
	}

	sc.Observe(40, 3*time.Second)
	st := cl.Stats()
	if st.TrainingSessions < 1 || st.Preemptions < 1 {
		t.Fatalf("sessions=%d preemptions=%d, want ≥1 each", st.TrainingSessions, st.Preemptions)
	}
	// Shard 0 served throughout; shard 3 sat out the middle window.
	if st.Shards[0].Utilisation != 1 {
		t.Fatalf("shard 0 utilisation = %v, want 1", st.Shards[0].Utilisation)
	}
	if u := st.Shards[3].Utilisation; u <= 0 || u >= 1 {
		t.Fatalf("shard 3 utilisation = %v, want in (0,1)", u)
	}
	if st.MeanUtilisation <= 0 || st.MeanUtilisation > 1 {
		t.Fatalf("mean utilisation = %v", st.MeanUtilisation)
	}
}

// TestDeadlineShedding warms a 1-replica shard's service estimate, then
// stacks a backlog and checks that an un-meetable deadline is shed with a
// positive retry-after hint.
func TestDeadlineShedding(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cfg := clusterConfig(tk, 1, 1)
	cfg.Admission.MaxPending = 64
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// Warm the EWMA service-time estimate.
	for i := 0; i < 2; i++ {
		if _, err := cl.Serve(context.Background(), Request{
			Prompt: gen.Pool()[i].Prompt, MaxNew: 48, Seed: int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Stack a backlog without waiting.
	var streams []*Stream
	for i := 0; i < 8; i++ {
		st, err := cl.Stream(context.Background(), Request{
			Prompt: gen.Pool()[i%len(gen.Pool())].Prompt, MaxNew: 48, Seed: int64(i),
		})
		if err != nil {
			t.Fatalf("backlog submit %d: %v", i, err)
		}
		streams = append(streams, st)
	}
	// A request with a nanosecond budget cannot wait behind that backlog.
	_, err = cl.Stream(context.Background(), Request{
		Prompt: gen.Pool()[0].Prompt, MaxNew: 48, Deadline: time.Nanosecond,
	})
	var shed *ErrShedded
	if !errors.As(err, &shed) {
		t.Fatalf("want *ErrShedded, got %v", err)
	}
	if shed.RetryAfter <= 0 || shed.Pending == 0 {
		t.Fatalf("shed hint not populated: %+v", shed)
	}
	for _, st := range streams {
		st.Wait()
	}
	if st := cl.Stats(); st.Shed != 1 || st.ShedRate <= 0 {
		t.Fatalf("shed accounting: shed=%d rate=%v", st.Shed, st.ShedRate)
	}
}
