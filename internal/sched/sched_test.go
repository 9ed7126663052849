package sched

import (
	"math/rand"
	"testing"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/specdec"
	"fastrl/internal/tokenizer"
	"fastrl/internal/workload"
)

type testEnv struct {
	tk     *tokenizer.Tokenizer
	target *model.LM
	eagle  *draft.Eagle
	gen    *workload.TaskGen
}

func newEnv(t testing.TB) *testEnv {
	t.Helper()
	tk := tokenizer.New()
	cfg := model.DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	cfg.Buckets = 1 << 10
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	target := model.New(cfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	gen := workload.NewTaskGen(tk, 50, 3)

	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	rng := rand.New(rand.NewSource(4))
	var examples []*draft.Example
	for _, task := range gen.Sample(60) {
		seq := model.Generate(target, task.Prompt, nil, 1, 50, tk.Eos(), rng)
		examples = append(examples, draft.HarvestExamples(target, model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, e.FusedHiddens(), true)...)
	}
	for i := 0; i < 3; i++ {
		e.Train(examples, nil, rng)
	}
	return &testEnv{tk: tk, target: target, eagle: e, gen: gen}
}

// fixedStrategyConfig returns a scheduler config whose decode behaviour is
// independent of batch size: one SD strategy (so the MAB has no choice to
// make and draws no randomness) always active. Per-request token streams
// are schedule-invariant only under such a config — with a strategy
// ladder, the chosen tree shape depends on how many requests happen to be
// co-batched.
func fixedStrategyConfig(dev *gpu.Device) Config {
	cfg := DefaultConfig(dev)
	cfg.SDThreshold = 0
	cfg.Strategies = []specdec.Params{{DraftDepth: 6, TopK: 6, TokensToVerify: 24}}
	cfg.MAB.Thresholds = []int{1}
	return cfg
}

// poolRequest builds a fresh request for pool task i with a private
// seeded sampling stream.
func (env *testEnv) poolRequest(id, task, maxNew int, seed int64) *Request {
	pool := env.gen.Pool()
	prior := workload.LengthPrior{TargetLen: maxNew * 3 / 4, Sharpness: 20}
	r := NewRequest(id, pool[task%len(pool)].Prompt, maxNew, prior, env.tk.Answer(), env.tk.Eos())
	r.RNG = rand.New(rand.NewSource(seed))
	return r
}

// requests samples n requests from the task generator with seeded length
// priors; successive calls advance the generator, so they differ.
func (env *testEnv) requests(t testing.TB, n, maxNew int, seed int64) []*Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sampler := workload.DefaultLengthSampler(maxNew)
	var reqs []*Request
	for i, task := range env.gen.Sample(n) {
		prior := workload.PriorFor(task, sampler, rng)
		reqs = append(reqs, NewRequest(i, task.Prompt, maxNew, prior, env.tk.Answer(), env.tk.Eos()))
	}
	return reqs
}

// runToCompletion drives a batch until every admitted request finished,
// collecting retirements.
func runToCompletion(t *testing.T, b *Batch, rng *rand.Rand) []*Request {
	t.Helper()
	var retired []*Request
	for i := 0; b.ActiveCount() > 0; i++ {
		if i > 100000 {
			t.Fatal("batch did not converge")
		}
		b.Step(rng)
		retired = append(retired, b.Retire()...)
	}
	return retired
}

func TestAdmitStepRetireLifecycle(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))

	var reqs []*Request
	for i := 0; i < 4; i++ {
		r := env.poolRequest(i, i, 40, int64(100+i))
		reqs = append(reqs, r)
		b.Admit(r)
	}
	if got := b.ActiveCount(); got != 4 {
		t.Fatalf("ActiveCount after admits = %d, want 4", got)
	}
	retired := runToCompletion(t, b, rng)
	if len(retired) != 4 {
		t.Fatalf("retired %d, want 4", len(retired))
	}
	for _, r := range retired {
		if !r.Done {
			t.Fatalf("retired request %d not done", r.ID)
		}
		if r.Generated() == 0 || r.Generated() > r.MaxNew {
			t.Fatalf("request %d generated %d of max %d", r.ID, r.Generated(), r.MaxNew)
		}
		if r.FinishedAt() <= r.AdmittedAt() {
			t.Fatalf("request %d has no decode span: admitted %v finished %v",
				r.ID, r.AdmittedAt(), r.FinishedAt())
		}
	}
	st := b.Stats()
	var gen int
	for _, r := range reqs {
		gen += r.Generated()
	}
	if st.ResponseTokens != gen {
		t.Fatalf("token accounting mismatch: stats %d vs requests %d", st.ResponseTokens, gen)
	}
	if st.SDSteps == 0 {
		t.Fatal("no SD steps recorded")
	}
}

// TestMidFlightAdmission pins the defining property of iteration-level
// scheduling: a request admitted while others are mid-decode joins at the
// next step boundary instead of waiting for the batch to drain.
func TestMidFlightAdmission(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))

	first := env.poolRequest(0, 0, 60, 11)
	b.Admit(first)
	for i := 0; i < 3; i++ {
		b.Step(rng)
	}
	if first.Done {
		t.Skip("first request finished before mid-flight admission")
	}
	second := env.poolRequest(1, 1, 30, 12)
	b.Admit(second)
	prof, _ := b.Step(rng)
	if prof.Running != 2 {
		t.Fatalf("step after mid-flight admission ran %d requests, want 2", prof.Running)
	}
	if second.AdmittedAt() <= first.AdmittedAt() {
		t.Fatal("second request's admission time not later than first's")
	}
	runToCompletion(t, b, rng)
	if !first.Done || !second.Done {
		t.Fatal("requests did not complete after mid-flight admission")
	}
}

// TestRetireAtStepBoundary pins that short requests leave the batch while
// long ones keep decoding — finished work does not wait for the batch.
func TestRetireAtStepBoundary(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	short := env.poolRequest(0, 0, 4, 21)
	long := env.poolRequest(1, 1, 300, 22)
	long.Prior = workload.LengthPrior{TargetLen: 280, Sharpness: 12}
	b.Admit(short)
	b.Admit(long)

	sawEarlyRetire := false
	for i := 0; b.ActiveCount() > 0 && i < 100000; i++ {
		b.Step(rng)
		for _, r := range b.Retire() {
			if r == short && !long.Done {
				sawEarlyRetire = true
			}
		}
	}
	if !sawEarlyRetire {
		t.Fatal("short request did not retire before the long request finished")
	}
}

// TestTruncateRemaining pins the premature-termination hook the
// run-to-completion driver uses.
func TestTruncateRemaining(t *testing.T) {
	env := newEnv(t)
	b, err := New(fixedStrategyConfig(gpu.NewDevice(gpu.H100, 1)), env.target, env.eagle)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		b.Admit(env.poolRequest(i, i, 200, int64(31+i)))
	}
	b.Step(rng)
	b.TruncateRemaining()
	retired := b.Retire()
	if len(retired) != 3 {
		t.Fatalf("retired %d after truncation, want 3", len(retired))
	}
	truncated := 0
	for _, r := range retired {
		if r.Truncated() {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no request marked truncated")
	}
	if st := b.Stats(); st.TruncatedRequests != truncated {
		t.Fatalf("stats count %d truncated, retired %d", st.TruncatedRequests, truncated)
	}
	if b.ActiveCount() != 0 {
		t.Fatal("batch still active after truncation")
	}
}
