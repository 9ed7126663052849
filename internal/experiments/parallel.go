package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach runs fn(0..n-1) across a bounded worker pool (one worker per
// CPU), so tltbench and the quick-mode tests regenerate independent
// experiment arms on all cores. Determinism is preserved because every
// arm derives its RNGs from its own fixed seeds (newRand, SampleSeeded)
// and writes only to its own result slot — arms must not share mutable
// state. Results are identical to the sequential loop in any order.
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
