package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// reports in step, and checks the bounds the benchmark fixes.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(b.EndToEnd), len(endToEndSpecs))
	}
	var setupBound, maxOther float64
	for i, m := range b.EndToEnd {
		if s := endToEndSpecs[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end-to-end %d: declared %+v, reported %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	if len(b.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(b.PerLayer), len(perLayerSpecs))
	}
	for i, m := range b.PerLayer {
		if s := perLayerSpecs[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer %d: declared %+v, reported %+v", i, m, s)
		}
	}
}

func TestEveryRunReportsItsDeclaredMetrics(t *testing.T) {
	res := phaseResult{attempted: 4, ok: 4, tokens: 4000, ttftMs: []float64{1, 2}, latMs: []float64{3, 4},
		simLatMs: []float64{5, 6}, simTok: 10, simSec: 1}
	res.wall, res.cpu = 2*time.Second, time.Second
	got := endToEnd(res, []float64{1, 3, 2}, 50)
	if len(got) != len(endToEndSpecs) {
		t.Fatalf("%d metrics reported, %d declared", len(got), len(endToEndSpecs))
	}
	for i, m := range got {
		if m.name != endToEndSpecs[i].name || m.unit != endToEndSpecs[i].unit {
			t.Errorf("metric %d: %s %s, declared %s %s", i, m.name, m.unit, endToEndSpecs[i].name, endToEndSpecs[i].unit)
		}
		if m.value == 0 {
			t.Errorf("%s reads 0", m.name)
		}
	}
}
