package metrics

import (
	"bytes"
	"sync"
	"testing"
)

func TestRegistryCounterIdempotent(t *testing.T) {
	g := NewRegistry()
	a := g.Counter("served")
	b := g.Counter("served")
	if a != b {
		t.Fatalf("Counter not idempotent by name")
	}
	a.Add(3)
	if got := g.Snapshot().Counter("served"); got != 3 {
		t.Fatalf("snapshot served = %d, want 3", got)
	}
	if got := g.Snapshot().Counter("absent"); got != 0 {
		t.Fatalf("absent counter = %d, want 0", got)
	}
}

// The registry's load-bearing guarantee: a snapshot never observes a
// terminal-transition group half-applied, so outcome counters can never
// exceed the submission counter — under concurrent load, not just at
// quiescence.
func TestSnapshotNeverTearsUpdateGroups(t *testing.T) {
	g := NewRegistry()
	submitted := g.Counter("submitted")
	served := g.Counter("served")
	cancelled := g.Counter("cancelled")

	const workers = 4
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				submitted.Inc()
				g.Update(func() {
					if i%3 == 0 {
						cancelled.Inc()
					} else {
						served.Inc()
					}
				})
			}
		}(w)
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := g.Snapshot()
			if term := s.Counter("served") + s.Counter("cancelled"); term > s.Counter("submitted") {
				t.Errorf("torn snapshot: terminal %d > submitted %d", term, s.Counter("submitted"))
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	swg.Wait()

	s := g.Snapshot()
	if got := s.Counter("served") + s.Counter("cancelled"); got != workers*perWorker {
		t.Fatalf("terminal total %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeSnapshot(t *testing.T) {
	g := NewRegistry()
	g.Gauge("queue_len", func() float64 { return 7 })
	if s := g.Snapshot(); s.Gauge("queue_len") != 7 {
		t.Fatalf("gauge = %v, want 7", s.Gauge("queue_len"))
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		g := NewRegistry()
		g.Counter("b/served").Add(2)
		g.Counter("a/served").Add(1)
		g.Gauge("z", func() float64 { return 1 })
		g.Gauge("a", func() float64 { return 2 })
		return g.Snapshot()
	}
	j1, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", j1, j2)
	}
	str := build().String()
	if str == "" || str != build().String() {
		t.Fatalf("snapshot String not deterministic")
	}
}
