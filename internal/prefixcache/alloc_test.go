package prefixcache

import (
	"math/rand"
	"testing"
)

// allocSetup builds a populated cache plus a query mix of hits at varying
// depths and misses.
func allocSetup() (*Cache, [][]int) {
	rng := rand.New(rand.NewSource(7))
	c := New(Config{})
	prefix := make([]int, 24)
	for i := range prefix {
		prefix[i] = rng.Intn(50)
	}
	var queries [][]int
	for i := 0; i < 32; i++ {
		s := append(append([]int(nil), prefix...), rng.Intn(50), rng.Intn(50), rng.Intn(50))
		c.Insert(s, len(prefix))
		queries = append(queries, s)
	}
	// Misses and partial matches.
	queries = append(queries, []int{99, 98, 97}, prefix[:10], append(append([]int(nil), prefix...), 99))
	return c, queries
}

// TestLookupZeroAlloc pins the cache's Lookup/Release and MatchLen hot
// paths at zero heap allocations per call, matching the repo's perf
// methodology (ROADMAP: steady-state hot paths stay at 0 allocs/op).
func TestLookupZeroAlloc(t *testing.T) {
	c, queries := allocSetup()
	if avg := testing.AllocsPerRun(1000, func() {
		for _, q := range queries {
			n, _ := c.Lookup(q)
			n.Release()
		}
	}); avg != 0 {
		t.Errorf("Lookup+Release: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		for _, q := range queries {
			c.MatchLen(q)
		}
	}); avg != 0 {
		t.Errorf("MatchLen: %v allocs/op, want 0", avg)
	}
}

func BenchmarkLookup(b *testing.B) {
	c, queries := allocSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		n, _ := c.Lookup(q)
		n.Release()
	}
}

func BenchmarkMatchLen(b *testing.B) {
	c, queries := allocSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MatchLen(queries[i%len(queries)])
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := New(Config{BudgetBytes: 1 << 18})
	seqs := make([][]int, 256)
	for i := range seqs {
		s := make([]int, 16+rng.Intn(16))
		for j := range s {
			s[j] = rng.Intn(40)
		}
		seqs[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(seqs[i%len(seqs)], 8)
	}
}
