package serving

import (
	"context"
	"sync"
	"testing"

	"fastrl/internal/gpu"
	"fastrl/internal/sched"
	"fastrl/internal/specdec"
	"fastrl/internal/tokenizer"
)

// fixedStrategyServerConfig pins one SD strategy so decode behaviour is
// independent of batch composition (a strategy ladder picks trees by
// batch size, which is the point of the MAB but would make this test's
// solo-vs-batched comparison ill-defined).
func fixedStrategyServerConfig(tk *tokenizer.Tokenizer, replicas, maxBatch int) Config {
	ecfg := sched.DefaultConfig(gpu.NewDevice(gpu.H100, 1))
	ecfg.SDThreshold = 0
	ecfg.Strategies = []specdec.Params{{DraftDepth: 6, TopK: 6, TokensToVerify: 24}}
	ecfg.MAB.Thresholds = []int{1}
	return Config{
		Engine: ecfg, Replicas: replicas, MaxBatch: maxBatch,
		AnswerID: tk.Answer(), EosID: tk.Eos(),
	}
}

// TestAcceptLenExactPerRequest pins the per-request accept-length fix:
// Response.AcceptLen is computed from the request's own accepted rounds,
// so a request served inside a continuous batch reports exactly the
// accept length it reports when served alone — co-batched traffic can no
// longer smear into it (the old whole-engine-stats computation would
// average across everything the replica had decoded).
func TestAcceptLenExactPerRequest(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	task := gen.Pool()[2]
	req := Request{Prompt: task.Prompt, MaxNew: 48, Seed: 42}

	// Baseline: the request served alone on an idle server.
	soloSrv, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := soloSrv.Serve(context.Background(), req)
	soloSrv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if solo.AcceptLen < 1 {
		t.Fatalf("solo accept length %v, want >= 1 with SD on", solo.AcceptLen)
	}

	// The same request submitted alongside filler traffic on a single
	// continuous-batching replica: tokens and accept length must be
	// bit-identical to the solo serve.
	busySrv, err := New(fixedStrategyServerConfig(tk, 1, 4), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer busySrv.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			filler := gen.Pool()[4+i]
			busySrv.Serve(context.Background(), Request{
				Prompt: filler.Prompt, MaxNew: 64, Seed: int64(900 + i),
			})
		}(i)
	}
	batched, err := busySrv.Serve(context.Background(), req)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if len(batched.Tokens) != len(solo.Tokens) {
		t.Fatalf("batched response %d tokens, solo %d", len(batched.Tokens), len(solo.Tokens))
	}
	for i := range solo.Tokens {
		if batched.Tokens[i] != solo.Tokens[i] {
			t.Fatalf("token %d differs between solo and batched serve", i)
		}
	}
	if batched.AcceptLen != solo.AcceptLen {
		t.Fatalf("accept length not exact per request: batched %v vs solo %v",
			batched.AcceptLen, solo.AcceptLen)
	}
}
