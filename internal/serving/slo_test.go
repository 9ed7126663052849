package serving

import (
	"context"
	"testing"
	"time"

	"fastrl/internal/slo"
	"fastrl/internal/trace"
)

// TestServingHistogramExemplars pins that the latency/TTFT/ITL stats come
// from exemplar-linked histograms, and that the tail exemplars are real
// scheduler request IDs that a flight recorder or trace export can be
// queried with.
func TestServingHistogramExemplars(t *testing.T) {
	target, e, tk, gen := servingSetup(t)
	srv, err := New(serverConfig(tk, 2), target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	const n = 12
	for i := 0; i < n; i++ {
		task := gen.Pool()[i%len(gen.Pool())]
		if _, err := srv.Serve(context.Background(), Request{
			Prompt: task.Prompt, MaxNew: 32, Seed: int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap := srv.Registry().Snapshot()
	lat := snap.Histogram("latency")
	if lat.N != n {
		t.Fatalf("latency histogram holds %d samples, want %d", lat.N, n)
	}
	if lat.P50 <= 0 || lat.P95 < lat.P50 || lat.P999 < lat.P95 {
		t.Fatalf("latency quantiles not monotone: %+v", lat)
	}
	if len(lat.TailExemplars) == 0 {
		t.Fatal("latency tail bucket retained no exemplars")
	}
	for _, id := range lat.TailExemplars {
		if id < 1 || id > n {
			t.Fatalf("tail exemplar %d is not a scheduler request ID in [1,%d]", id, n)
		}
	}
	if ttft := snap.Histogram("ttft"); ttft.N != n || len(ttft.TailExemplars) == 0 {
		t.Fatalf("ttft histogram: n=%d exemplars=%v", ttft.N, ttft.TailExemplars)
	}
	if itl := snap.Histogram("itl"); itl.N == 0 {
		t.Fatal("itl histogram empty after multi-chunk responses")
	}

	lats, ttfts := srv.TailHistograms()
	if lats.N() != n || ttfts.N() != n {
		t.Fatalf("TailHistograms n = %d/%d, want %d", lats.N(), ttfts.N(), n)
	}
}

// TestServingSLOFeed pins the serving→slo wiring: a server with an
// impossible TTFT objective burns its error budget, breaches, and drops
// breach markers into the shard's flight recorder; a generous objective
// never burns.
func TestServingSLOFeed(t *testing.T) {
	target, e, tk, gen := servingSetup(t)

	fr := trace.NewFlightRecorder(256)
	// The fast window spans the whole run in virtual time, so the burn
	// reading at the last observation still covers every TTFT sample.
	eng, err := slo.NewEngine([]slo.Spec{{
		Name: "ttft-p95", Kind: slo.TTFT, Threshold: time.Nanosecond,
		Objective: 0.95, FastWindow: 30 * time.Second,
	}}, 0, fr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig(tk, 2)
	cfg.SLO = eng
	srv, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		task := gen.Pool()[i%len(gen.Pool())]
		if _, err := srv.Serve(context.Background(), Request{
			Prompt: task.Prompt, MaxNew: 32, Seed: int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Stop()

	if b := eng.BurnRate(); b < 4 {
		t.Fatalf("all-bad TTFT stream burn = %v, want >= 4", b)
	}
	if eng.Breaches() == 0 {
		t.Fatal("impossible objective never breached")
	}
	found := false
	for _, r := range fr.Snapshot() {
		if r.Kind == trace.KindSLOBreach {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no KindSLOBreach marker in the flight recorder")
	}

	// A generous objective stays quiet on the same workload.
	okEng, err := slo.NewEngine([]slo.Spec{{
		Name: "ttft-loose", Kind: slo.TTFT, Threshold: time.Hour, Objective: 0.95,
	}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := serverConfig(tk, 2)
	cfg2.SLO = okEng
	srv2, err := New(cfg2, target, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Serve(context.Background(), Request{
		Prompt: gen.Pool()[0].Prompt, MaxNew: 32, Seed: 9,
	}); err != nil {
		t.Fatal(err)
	}
	srv2.Stop()
	if b := okEng.BurnRate(); b != 0 {
		t.Fatalf("healthy stream burn = %v, want 0", b)
	}
	if okEng.Breaches() != 0 {
		t.Fatal("healthy stream breached")
	}
}
