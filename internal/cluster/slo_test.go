package cluster

import (
	"context"
	"slices"
	"testing"
	"time"

	"fastrl/internal/serving"
	"fastrl/internal/slo"
	"fastrl/internal/trace"
	"fastrl/internal/workload"
)

// TestClusterSLOStats pins the cluster-level SLO surface: shards with an
// impossible TTFT objective report burn and breaches through Stats, the
// breach markers land in the shard flight recorders, and the p99.9 tails
// and their exemplars are those of the cluster's per-request histograms,
// read from the same registry snapshot as p50 and p95.
func TestClusterSLOStats(t *testing.T) {
	target, e, tk, gen := clusterSetup(t)
	cfg := clusterConfig(tk, 2, 1)
	// The fast window spans the whole run in virtual time, so the burn
	// reading at the last observation still covers every TTFT sample.
	cfg.SLO = []slo.Spec{{
		Name: "ttft-p95", Kind: slo.TTFT, Threshold: time.Nanosecond,
		Objective: 0.95, FastWindow: 30 * time.Second,
	}}
	cl, err := New(cfg, target, e)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	for i := 0; i < 10; i++ {
		task := gen.Pool()[i%len(gen.Pool())]
		if _, err := cl.Serve(context.Background(), Request{
			Prompt: task.Prompt, MaxNew: 32, Seed: int64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}

	st := cl.Stats()
	if st.BurnRate < 4 {
		t.Fatalf("cluster burn rate = %v, want >= 4 for an all-bad stream", st.BurnRate)
	}
	if st.SLOBreaches == 0 {
		t.Fatal("impossible objective never breached")
	}
	burned := false
	for _, ss := range st.Shards {
		if len(ss.SLO) != 1 {
			t.Fatalf("shard %d SLO status has %d specs, want 1", ss.ID, len(ss.SLO))
		}
		if ss.BurnRate > 0 {
			burned = true
		}
	}
	if !burned {
		t.Fatal("no shard reports a positive burn rate")
	}
	// Breach markers are in at least one shard's flight-recorder ring.
	found := false
	for id := 0; id < cl.Shards() && !found; id++ {
		for _, r := range cl.FlightRecorder(id).Snapshot() {
			if r.Kind == trace.KindSLOBreach {
				if r.ReqID != -1 || int(r.Shard) != id {
					t.Fatalf("marker fields wrong: %+v on shard %d", r, id)
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no KindSLOBreach marker in any shard ring")
	}
	// A long request served straight on shard 0, bypassing the router as
	// chaos's revival probe does, reaches that shard's own histograms but
	// not the cluster's per-request ones, so it must not move the tails.
	if _, err := cl.ShardServer(0).Serve(context.Background(), serving.Request{
		Prompt: gen.Pool()[0].Prompt, MaxNew: 256, Seed: 99,
		Prior: workload.LengthPrior{TargetLen: 200, Sharpness: 25},
	}); err != nil {
		t.Fatal(err)
	}
	st = cl.Stats()
	// Tails: present, exemplar-linked, and equal to the snapshot's.
	if st.P999 <= 0 || st.TTFTP999 <= 0 {
		t.Fatalf("tails empty: p999=%v ttft_p999=%v", st.P999, st.TTFTP999)
	}
	if len(st.P999Exemplars) == 0 || len(st.TTFTP999Exemplars) == 0 {
		t.Fatal("p99.9 buckets retained no exemplar request IDs")
	}
	snap := cl.Registry().Snapshot()
	lat, ttft := snap.Histogram("latency"), snap.Histogram("ttft")
	if lat.N != 10 || ttft.N != 10 {
		t.Fatalf("cluster histograms hold %d/%d samples, want one per served request (10)", lat.N, ttft.N)
	}
	if st.P999 != time.Duration(lat.P999) || st.TTFTP999 != time.Duration(ttft.P999) {
		t.Fatalf("Stats p999=%v ttft_p999=%v, snapshot %v/%v",
			st.P999, st.TTFTP999, time.Duration(lat.P999), time.Duration(ttft.P999))
	}
	if !slices.Equal(st.P999Exemplars, lat.TailExemplars) || !slices.Equal(st.TTFTP999Exemplars, ttft.TailExemplars) {
		t.Fatalf("Stats exemplars %v/%v, snapshot %v/%v",
			st.P999Exemplars, st.TTFTP999Exemplars, lat.TailExemplars, ttft.TailExemplars)
	}
}
