package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
)

func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Buckets: []float64{0, 1, 2, 4, math.Inf(1)},
		Counts:  []uint64{10, 80, 9, 1},
	}
	for _, c := range []struct {
		q, want float64
	}{{0.05, 1}, {0.5, 2}, {0.9, 2}, {0.95, 4}, {0.99, 4}, {1, 4}} {
		v, n := histQuantile(h, c.q)
		if v != c.want || n != 100 {
			t.Errorf("q%v = %v over %d, want %v over 100", c.q, v, n, c.want)
		}
	}
	if v, n := histQuantile(&metrics.Float64Histogram{Buckets: h.Buckets, Counts: make([]uint64, 4)}, 0.99); v != 0 || n != 0 {
		t.Errorf("empty histogram quantile = %v over %d", v, n)
	}
}

func TestHistDeltaCountsOnlyNewObservations(t *testing.T) {
	b := []float64{0, 1, 2}
	start := &metrics.Float64Histogram{Buckets: b, Counts: []uint64{5, 5}}
	end := &metrics.Float64Histogram{Buckets: b, Counts: []uint64{5, 9}}
	d := histDelta(start, end)
	if d.Counts[0] != 0 || d.Counts[1] != 4 {
		t.Fatalf("delta counts %v, want [0 4]", d.Counts)
	}
	if end.Counts[1] != 9 {
		t.Fatal("histDelta modified its input")
	}
}

func TestRuntimeSnapshotHasSchedulerLatencies(t *testing.T) {
	runtime.GC() // the /cpu/classes estimates are refreshed at GC
	rt := readRuntime()
	if rt.hist(mSchedLat) == nil {
		t.Fatalf("%s missing from runtime/metrics", mSchedLat)
	}
	if rt.value(mTotalCPU) <= 0 {
		t.Fatalf("%s not positive", mTotalCPU)
	}
}

func TestFingerprintsMustMatchToCompare(t *testing.T) {
	a := fingerprint{CPU: "Xeon", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Workload: "serve-longtail", Seconds: 30}
	if d := a.comparableWith(a); d != "" {
		t.Fatalf("identical fingerprints refused: %s", d)
	}
	for name, mutate := range map[string]func(*fingerprint){
		"cpu":        func(f *fingerprint) { f.CPU = "EPYC" },
		"nproc":      func(f *fingerprint) { f.NumCPU = 4 },
		"gomaxprocs": func(f *fingerprint) { f.GOMAXPROCS = 1 },
		"go":         func(f *fingerprint) { f.GoVersion = "go1.23.0" },
		"seconds":    func(f *fingerprint) { f.Seconds = 10 },
		"trace":      func(f *fingerprint) { f.Trace = true },
	} {
		b := a
		mutate(&b)
		if a.comparableWith(b) == "" {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}
