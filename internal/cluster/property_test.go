package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestPrefixAffinityStable pins the routing property: the same prompt
// prefix always lands on the same live shard, regardless of suffix, load,
// or repetition — and removing an unrelated shard from the live set does
// not move it (rendezvous hashing's minimal-disruption property).
func TestPrefixAffinityStable(t *testing.T) {
	const prefixLen = 6
	p := NewPrefixAffinity(prefixLen)
	rng := rand.New(rand.NewSource(77))

	f := func(seed int64, nShards uint8, promptLen uint8) bool {
		n := 2 + int(nShards)%6
		live := make([]int, n)
		loads := make([]int, n)
		for i := range live {
			live[i] = i
		}
		r := rand.New(rand.NewSource(seed))
		prompt := make([]int, prefixLen+int(promptLen)%16)
		for i := range prompt {
			prompt[i] = r.Intn(512)
		}

		picked := live[p.Pick(prompt, live, loads)]
		// Repetition with arbitrary loads: affinity ignores load.
		for trial := 0; trial < 8; trial++ {
			for i := range loads {
				loads[i] = rng.Intn(100)
			}
			if live[p.Pick(prompt, live, loads)] != picked {
				return false
			}
		}
		// Suffix changes beyond the prefix must not move the request.
		longer := append(append([]int(nil), prompt[:prefixLen]...), rng.Intn(512), rng.Intn(512))
		if live[p.Pick(longer, live, loads)] != picked {
			return false
		}
		// Removing a shard the prefix did not map to must not move it.
		for _, drop := range live {
			if drop == picked {
				continue
			}
			smaller := make([]int, 0, n-1)
			for _, id := range live {
				if id != drop {
					smaller = append(smaller, id)
				}
			}
			if smaller[p.Pick(prompt, smaller, make([]int, len(smaller)))] != picked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixAffinityThroughCluster checks the same stability end-to-end:
// PickShard on a live cluster is constant per prefix while shard states
// are fixed.
func TestPrefixAffinityThroughCluster(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cfg := clusterConfig(tk, 4, 1)
	cfg.Policy = NewPrefixAffinity(4)
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for _, task := range gen.Pool()[:8] {
		want := cl.PickShard(task.Prompt)
		for i := 0; i < 16; i++ {
			if got := cl.PickShard(task.Prompt); got != want {
				t.Fatalf("prefix moved: shard %d then %d", want, got)
			}
		}
	}
}

// TestNoSilentDrops pins the admission property: under overload of a
// deliberately tiny shard, every submitted request is accounted for — a
// response or a typed *ErrShedded, never silence — and the cluster's
// shed counter matches the client-observed sheds. The overload comes in
// two phases: a synchronous submission burst whose sheds are guaranteed
// (one submitter outpaces the single replica no matter how the runtime
// schedules completions — admission slots are released synchronously at
// the terminal event, so on one core a purely concurrent burst can be
// legally shed-free), then a concurrent burst that stresses the racing
// reserve/release paths.
func TestNoSilentDrops(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cfg := clusterConfig(tk, 1, 1)
	cfg.Shard.QueueDepth = 2
	cfg.Admission.MaxPending = 2
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const n = 80
	var served, shedded int
	shedOrFatal := func(err error) {
		t.Helper()
		var shed *ErrShedded
		if !errors.As(err, &shed) {
			t.Fatalf("untyped error: %v", err)
		}
		if shed.RetryAfter < 0 {
			t.Fatalf("negative retry-after: %+v", shed)
		}
	}

	// Phase 1: synchronous burst — sheds are deterministic.
	var streams []*Stream
	for i := 0; i < n/2; i++ {
		task := gen.Pool()[i%len(gen.Pool())]
		st, err := cl.Stream(context.Background(), Request{Prompt: task.Prompt, MaxNew: 24, Seed: int64(i)})
		if err != nil {
			shedOrFatal(err)
			shedded++
			continue
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		resp, err := st.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Tokens) == 0 {
			t.Error("served response with no tokens")
		}
		served++
	}
	if shedded == 0 {
		t.Fatal("synchronous overload produced no sheds; the property test is vacuous")
	}

	// Phase 2: concurrent burst — accounting must stay exact when
	// submits race the reservation counter.
	start := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n/2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			task := gen.Pool()[i%len(gen.Pool())]
			resp, err := cl.Serve(context.Background(), Request{Prompt: task.Prompt, MaxNew: 24, Seed: int64(i)})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if len(resp.Tokens) == 0 {
					t.Error("served response with no tokens")
				}
				served++
			default:
				var shed *ErrShedded
				if !errors.As(err, &shed) {
					t.Errorf("untyped error: %v", err)
					return
				}
				if shed.RetryAfter < 0 {
					t.Errorf("negative retry-after: %+v", shed)
				}
				shedded++
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if served+shedded != n {
		t.Fatalf("accounting leak: %d served + %d shed != %d submitted", served, shedded, n)
	}
	st := cl.Stats()
	if st.Served != served || st.Shed != shedded {
		t.Fatalf("cluster stats (%d/%d) disagree with clients (%d/%d)",
			st.Served, st.Shed, served, shedded)
	}
}
