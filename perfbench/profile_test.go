package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fastrl/internal/specdec.(*Engine).StepBatch":     "specdec",
		"fastrl/internal/model.expf":                      "model",
		"fastrl/internal/serving.(*Server).replica.func1": "serving",
		"fastrl/internal/sched.(*Batch).Step":             "sched",
		"runtime.mallocgc":                                "go",
		"runtime/internal/atomic.(*Uint32).Load":          "go",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "go",
		"main.main":          "bench",
		"sync.(*Mutex).Lock": "std",
		"":                   "std",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestModuleCPUFoldsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink = spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()

	m := newModuleCPU()
	if err := m.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if m.samples == 0 {
		t.Fatal("no samples decoded")
	}
	if m.self["bench"] == 0 {
		t.Fatalf("spin loop not attributed to the benchmark: self=%v", m.self)
	}
	total := 0
	for mod, ns := range m.self {
		if ns > m.cum[mod] || m.selfN[mod] > m.cumN[mod] {
			t.Errorf("%s: self %v (%d samples) exceeds cumulative %v (%d)", mod, ns, m.selfN[mod], m.cum[mod], m.cumN[mod])
		}
		total += m.selfN[mod]
	}
	if total != m.samples {
		t.Errorf("self sample counts sum to %d, want %d", total, m.samples)
	}
	if top := m.topSelf(); top != "bench" {
		t.Errorf("top self module %q, want bench", top)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decoded garbage")
	}
}
