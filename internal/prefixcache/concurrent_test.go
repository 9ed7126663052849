package prefixcache

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentSharedCache hammers one cache from several goroutines —
// the shape of serving replicas sharing a shard cache while the router
// probes MatchLen — so the -race job covers the lock discipline. The
// final invariant sweep reuses the property-test checker.
func TestConcurrentSharedCache(t *testing.T) {
	c := New(Config{BudgetBytes: 32 << 10})
	prefixes := [][]int{
		{1, 2, 3, 4, 5, 6},
		{9, 8, 7, 6, 5},
		{4, 4, 4, 4},
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				p := prefixes[rng.Intn(len(prefixes))]
				s := append(append([]int(nil), p...), rng.Intn(30), rng.Intn(30), rng.Intn(30))
				switch i % 3 {
				case 0:
					// Mark a prompt boundary on half the inserts, so
					// marking and its charge race against the readers
					// below.
					if i%2 == 0 {
						c.Insert(s, len(p))
					} else {
						c.Insert(s, 0)
					}
				case 1:
					n, m := c.Lookup(s)
					if n != nil {
						if m != n.Depth() {
							t.Errorf("matched %d != depth %d", m, n.Depth())
						}
						n.Release()
					}
				default:
					c.MatchLen(s)
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariants(t, c, nil)
	// One quiescent insert runs a final eviction pass (a concurrent
	// lookup may have pinned nodes during the last in-flight insert's
	// eviction); with nothing retained the budget must then hold.
	c.Insert([]int{99, 98, 97}, 0)
	if st := c.Stats(); st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d over budget %d after drain", st.ResidentBytes, st.BudgetBytes)
	}
}
