package main

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopNeverExceedsStreams(t *testing.T) {
	const streams, perStream = 3, 40
	var inflight, peak, total atomic.Int64
	var mu sync.Mutex
	seen := map[[2]int]bool{}
	err := closedLoop(streams,
		func(c, k int) bool { return k >= perStream },
		func(c, k int) error {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			mu.Lock()
			seen[[2]int{c, k}] = true
			mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			inflight.Add(-1)
			total.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > streams {
		t.Fatalf("%d requests outstanding at once, want at most %d", p, streams)
	}
	if total.Load() != streams*perStream || len(seen) != streams*perStream {
		t.Fatalf("ran %d requests (%d distinct), want %d", total.Load(), len(seen), streams*perStream)
	}
}

func TestServeInputsArePureInSeed(t *testing.T) {
	shape := serveShape{maxNew: 64, templates: 4, templateLen: 8, zipfS: 1.1}
	gen := func(seed int64) serveInputs {
		sys, err := newRLSystem(seed)
		if err != nil {
			t.Fatal(err)
		}
		return newServeInputs(sys, shape, rand.New(rand.NewSource(seed)))
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical inputs")
	}
	r0, r1 := a.request(2, 0, 0), a.request(2, 0, len(a)/2)
	if r0.Seed == r1.Seed {
		t.Fatal("a cycled request repeats its sampling seed")
	}
}
