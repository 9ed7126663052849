package prefixcache

import (
	"reflect"
	"testing"
)

// TestHotPrefixesDeterministicTieBreak pins the hot-prefix ordering
// contract: HotPrefixStats ranks by Lookup hit count descending with
// node-creation order breaking ties — never MRU recency, never map
// order — so two caches fed the same operation sequence return the same
// list and a warm handoff built on it is seed-reproducible.
func TestHotPrefixesDeterministicTieBreak(t *testing.T) {
	build := func() *Cache {
		c := New(Config{})
		c.Insert([]int{1, 1, 1}, 3)
		c.Insert([]int{2, 2, 2}, 3)
		c.Insert([]int{3, 3, 3}, 3)
		for _, p := range [][]int{{2, 2, 2}, {2, 2, 2}, {3, 3, 3}, {1, 1, 1}} {
			n, _ := c.Lookup(p)
			n.Release()
		}
		return c
	}
	c := build()
	got := hotTokens(c, 3)
	// Hits: {2,2,2}=2, {1,1,1}=1, {3,3,3}=1. The 1-hit tie breaks by
	// creation order ({1,1,1} was inserted first), NOT by recency (the
	// {3,3,3} lookup is more recent) — the regression the old MRU
	// ordering would fail.
	want := [][]int{{2, 2, 2}, {1, 1, 1}, {3, 3, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HotPrefixStats tokens = %v, want %v", got, want)
	}
	for run := 0; run < 3; run++ {
		if again := hotTokens(build(), 3); !reflect.DeepEqual(again, got) {
			t.Fatalf("run %d: HotPrefixStats not reproducible: %v vs %v", run, again, got)
		}
	}
	stats := c.HotPrefixStats(3)
	if len(stats) != 3 || stats[0].Hits != 2 || stats[1].Hits != 1 || stats[2].Hits != 1 {
		t.Fatalf("HotPrefixStats hits = %+v", stats)
	}
}

// TestExportImport round-trips a cached prefix — tokens and prompt
// boundary — into a fresh cache, the mechanism the warm handoff is built
// on.
func TestExportImport(t *testing.T) {
	src := New(Config{})
	seq := []int{1, 2, 3, 4, 5} // prompt [1 2 3], response [4 5]
	src.Insert(seq, 3)

	if _, ok := src.Export([]int{9, 9}); ok {
		t.Fatal("Export of a non-resident prefix succeeded")
	}
	if _, ok := src.Export(nil); ok {
		t.Fatal("Export(nil) succeeded")
	}
	ex, ok := src.Export(seq)
	if !ok {
		t.Fatal("Export of a resident prefix failed")
	}
	if ex.PromptLen != 3 || !reflect.DeepEqual(ex.Tokens, seq) {
		t.Fatalf("export = %+v, want tokens %v with PromptLen 3", ex, seq)
	}

	dst := New(Config{})
	dst.Import(ex)
	if dst.MatchLen(seq) != len(seq) {
		t.Fatalf("imported prefix matches %d of %d", dst.MatchLen(seq), len(seq))
	}
	n, matched := dst.Lookup([]int{1, 2, 3})
	defer n.Release()
	if matched != 3 || !n.prompt {
		t.Fatalf("boundary after import: matched=%d marked=%v, want 3 and marked", matched, n.prompt)
	}
	// The copy costs what the original does: same nodes, same boundary
	// charge.
	if got, want := dst.ResidentBytes(), src.ResidentBytes(); got != want {
		t.Fatalf("imported prefix resident %d bytes, source %d", got, want)
	}
}
