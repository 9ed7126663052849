package serving

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/sched"
	"fastrl/internal/tokenizer"
	"fastrl/internal/workload"
)

func servingSetup(t testing.TB) (*model.LM, *draft.Eagle, *tokenizer.Tokenizer, *workload.TaskGen) {
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
	for _, task := range gen.SampleSeeded(40, 11) {
		seq := model.Generate(target, task.Prompt, nil, 0.9, 50, tk.Eos(), rng)
		examples = append(examples, draft.HarvestExamples(target,
			model.Context{Tokens: seq, PromptLen: len(task.Prompt)}, e.FusedHiddens(), true)...)
	}
	for i := 0; i < 3; i++ {
		e.Train(examples, nil, rng)
	}
	return target, e, tk, gen
}

func serverConfig(tk *tokenizer.Tokenizer, replicas int) Config {
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	return Config{Engine: ecfg, Replicas: replicas, AnswerID: tk.Answer(), EosID: tk.Eos()}
}

func TestServeSingleRequest(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	srv, err := New(serverConfig(tk, 2), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	task := gen.Pool()[0]
	resp, err := srv.Serve(context.Background(), Request{
		Prompt: task.Prompt, MaxNew: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tokens) == 0 {
		t.Fatal("empty completion")
	}
	if resp.DecodeTime <= 0 || resp.Latency < resp.DecodeTime {
		t.Fatalf("latency accounting wrong: %v / %v", resp.Latency, resp.DecodeTime)
	}
	if resp.AcceptLen < 1 {
		t.Fatalf("SD accept length %v", resp.AcceptLen)
	}
}

func TestConcurrentClients(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	srv, err := New(serverConfig(tk, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := gen.Pool()[i%len(gen.Pool())]
			resp, err := srv.Serve(context.Background(), Request{
				Prompt: task.Prompt, MaxNew: 48, Seed: int64(i),
			})
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Tokens) == 0 {
				errs <- context.DeadlineExceeded
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	target, e, tk, _ := servingSetup(t)
	srv, err := New(serverConfig(tk, 1), target, e)
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	srv.Stop() // idempotent
	if _, err := srv.Stream(context.Background(), Request{Prompt: []int{tk.Bos()}, MaxNew: 8}); err == nil {
		t.Fatal("expected error after stop")
	}
}

func TestSubmitContextCancel(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	cfg := serverConfig(tk, 1)
	cfg.QueueDepth = 1
	srv, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// Saturate the queue, then a cancelled submit must fail fast.
	for i := 0; i < 3; i++ {
		task := gen.Pool()[i]
		go srv.Serve(context.Background(), Request{Prompt: task.Prompt, MaxNew: 64, Seed: int64(i)})
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := srv.Stream(ctx, Request{Prompt: gen.Pool()[0].Prompt, MaxNew: 64}); err != nil {
			return // got the fast-fail we wanted
		}
	}
	// All submits landed (queue drained fast); acceptable on a fast box.
}

func TestGreedyServingDeterministic(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	cfg := serverConfig(tk, 1)
	cfg.Engine.Temp = 0
	srv, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	task := gen.Pool()[3]
	a, err := srv.Serve(context.Background(), Request{Prompt: task.Prompt, MaxNew: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Serve(context.Background(), Request{Prompt: task.Prompt, MaxNew: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tokens) != len(b.Tokens) {
		t.Fatalf("greedy serving nondeterministic: %d vs %d tokens", len(a.Tokens), len(b.Tokens))
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatalf("token %d differs", i)
		}
	}
	// And greedy SD must equal greedy vanilla decoding (losslessness at
	// the serving layer).
	want := model.Generate(target, task.Prompt, nil, 0, 48, tk.Eos(), rand.New(rand.NewSource(1)))
	wantResp := want[len(task.Prompt):]
	if len(wantResp) != len(a.Tokens) {
		t.Fatalf("SD serving diverges from greedy decode: %d vs %d tokens", len(a.Tokens), len(wantResp))
	}
	for i := range wantResp {
		if a.Tokens[i] != wantResp[i] {
			t.Fatalf("SD serving token %d differs from greedy decode", i)
		}
	}
}

func TestLoadProbes(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	srv, err := New(serverConfig(tk, 2), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if srv.Pending() != 0 || srv.QueueLen() != 0 || srv.Inflight() != 0 {
		t.Fatalf("idle server reports load: pending=%d queue=%d inflight=%d",
			srv.Pending(), srv.QueueLen(), srv.Inflight())
	}
	if srv.Replicas() != 2 {
		t.Fatalf("Replicas = %d, want 2", srv.Replicas())
	}
	const n = 8
	streams := make([]*Stream, 0, n)
	for i := 0; i < n; i++ {
		task := gen.Pool()[i%len(gen.Pool())]
		st, err := srv.Stream(context.Background(), Request{Prompt: task.Prompt, MaxNew: 48, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	// With 8 outstanding jobs and 2 replicas, the probes must see load.
	if srv.Pending() == 0 {
		t.Fatal("probes saw no load with 8 outstanding jobs")
	}
	for _, st := range streams {
		st.Wait()
	}
	// All responses delivered ⇒ the load drains back to zero (inflight is
	// decremented before the response is sent).
	if got := srv.Pending(); got != 0 {
		t.Fatalf("drained server reports pending=%d", got)
	}
}

func TestNilDeviceRejected(t *testing.T) {
	target, e, _, _ := servingSetup(t)
	if _, err := New(Config{}, target, e); err == nil {
		t.Fatal("expected error for missing device")
	}
}
