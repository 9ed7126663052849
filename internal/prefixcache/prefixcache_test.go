package prefixcache

import (
	"reflect"
	"testing"
)

func seq(toks ...int) []int { return toks }

// hotTokens returns the token paths of HotPrefixStats(k), hottest first.
func hotTokens(c *Cache, k int) [][]int {
	var out [][]int
	for _, s := range c.HotPrefixStats(k) {
		out = append(out, s.Tokens)
	}
	return out
}

func TestLookupEmptyCache(t *testing.T) {
	c := New(Config{})
	n, m := c.Lookup(seq(1, 2, 3))
	if n != nil || m != 0 {
		t.Fatalf("Lookup on empty cache = (%v, %d)", n, m)
	}
	if c.MatchLen(seq(1, 2, 3)) != 0 {
		t.Fatal("MatchLen on empty cache != 0")
	}
	st := c.Stats()
	if st.Lookups != 1 || st.Hits != 0 || st.HitRate != 0 {
		t.Fatalf("stats after miss: %+v", st)
	}
}

func TestInsertLookupRoundTrip(t *testing.T) {
	c := New(Config{})
	tokens := seq(5, 6, 7, 8, 9, 10)
	c.Insert(tokens, 4)

	// Full-sequence lookup matches everything.
	n, m := c.Lookup(tokens)
	if n == nil || m != len(tokens) {
		t.Fatalf("full lookup matched %d, want %d", m, len(tokens))
	}
	n.Release()

	// The prompt boundary is a node boundary: a prompt-only lookup
	// matches exactly the prompt.
	n, m = c.Lookup(seq(5, 6, 7, 8))
	if n == nil || m != 4 {
		t.Fatalf("prompt lookup matched %d, want 4", m)
	}
	if n.Depth() != 4 {
		t.Fatalf("prompt node depth %d, want 4", n.Depth())
	}
	n.Release()

	// A diverging continuation matches only the shared prefix boundary.
	n, m = c.Lookup(seq(5, 6, 7, 8, 99))
	if n == nil || m != 4 {
		t.Fatalf("diverging lookup matched %d, want 4", m)
	}
	n.Release()

	// A query diverging inside an edge matches the boundary below it.
	if got := c.MatchLen(seq(5, 6, 99)); got != 0 {
		t.Fatalf("mid-edge divergence matched %d, want 0", got)
	}
}

func TestEdgeSplitPreservesContent(t *testing.T) {
	c := New(Config{})
	c.Insert(seq(1, 2, 3, 4, 5), 0)
	// Insert a sequence diverging mid-edge: forces a split at depth 3.
	c.Insert(seq(1, 2, 3, 9, 9), 0)

	for _, tc := range []struct {
		query []int
		want  int
	}{
		{seq(1, 2, 3, 4, 5), 5},
		{seq(1, 2, 3, 9, 9), 5},
		{seq(1, 2, 3), 3},
		{seq(1, 2), 0}, // depth 2 is inside a compressed edge
	} {
		if got := c.MatchLen(tc.query); got != tc.want {
			t.Errorf("MatchLen(%v) = %d, want %d", tc.query, got, tc.want)
		}
	}
}

func TestLookupReturnsTruePrefix(t *testing.T) {
	c := New(Config{})
	c.Insert(seq(1, 2, 3, 4), 2)
	c.Insert(seq(1, 2, 5, 6), 2)
	query := seq(1, 2, 3, 4, 7, 8)
	n, m := c.Lookup(query)
	if n == nil {
		t.Fatal("expected a match")
	}
	defer n.Release()
	got := n.AppendTokens(nil)
	if !reflect.DeepEqual(got, query[:m]) {
		t.Fatalf("node tokens %v != query prefix %v", got, query[:m])
	}
}

// TestPromptBoundary pins where Insert marks a prompt: on the node that
// ends at promptLen and nowhere else, so a prompt-only Lookup resumes
// from the marked node, and a later split above it keeps the mark on it.
func TestPromptBoundary(t *testing.T) {
	c := New(Config{})
	c.Insert(seq(1, 2, 3, 4, 5), 3)
	bn, m := c.Lookup(seq(1, 2, 3))
	bn.Release()
	if m != 3 || bn.Depth() != 3 || !bn.prompt {
		t.Fatalf("prompt lookup: matched %d, node %+v; want a marked node at depth 3", m, bn)
	}
	n, m := c.Lookup(seq(1, 2, 3, 4, 5))
	if m != 5 || n.prompt || n.parent != bn {
		t.Fatalf("full lookup: matched %d, marked %v, parent %p; want 5, unmarked, below the boundary %p", m, n.prompt, n.parent, bn)
	}
	n.Release()

	// A sequence diverging at depth 2 splits the boundary's edge; the
	// boundary keeps its identity, depth and mark, and the new mid node
	// and leaf stay unmarked, as promptLen 0 marks nothing.
	c.Insert(seq(1, 2, 9), 0)
	if n, m := c.Lookup(seq(1, 2, 9)); m != 3 || n.prompt {
		t.Fatalf("promptLen 0 leaf: matched %d, marked %v; want 3, unmarked", m, n.prompt)
	} else {
		n.Release()
	}
	if !bn.prompt || bn.Depth() != 3 || bn.parent.Depth() != 2 || bn.parent.prompt {
		t.Fatalf("after split: boundary marked %v at %d, parent marked %v at %d",
			bn.prompt, bn.Depth(), bn.parent.prompt, bn.parent.Depth())
	}
	if got := c.MatchLen(seq(1, 2, 3)); got != 3 {
		t.Fatalf("prompt matches %d after split, want 3", got)
	}
}

// TestPromptStateCharge pins what a prompt boundary costs the budget: 208
// modelled bytes once per marked node, however often the prompt recurs,
// refunded on eviction; a path no prompt ended on costs nothing, neither
// where it was inserted nor in a cache that imports it.
func TestPromptStateCharge(t *testing.T) {
	bare := New(Config{})
	bare.Insert(seq(1, 2, 3), 0)
	unmarked := bare.ResidentBytes()

	c := New(Config{})
	c.Insert(seq(1, 2, 3), 3)
	if got := c.ResidentBytes() - unmarked; got != 208 {
		t.Fatalf("prompt boundary charged %d bytes, want 208", got)
	}
	c.Insert(seq(1, 2, 3), 3)
	if got := c.ResidentBytes() - unmarked; got != 208 {
		t.Fatalf("after a second insert of the prompt the boundary costs %d bytes, want 208 once", got)
	}
	c.Clear()
	if got := c.ResidentBytes(); got != 0 {
		t.Fatalf("evicting the boundary left %d resident bytes", got)
	}

	ex, ok := bare.Export(seq(1, 2, 3))
	if !ok || ex.PromptLen != 0 {
		t.Fatalf("unmarked path exported (%+v, %v), want PromptLen 0", ex, ok)
	}
	dst := New(Config{})
	dst.Import(ex)
	if got := dst.ResidentBytes(); got != unmarked {
		t.Fatalf("importing an unmarked path charged %d bytes, want %d", got, unmarked)
	}
	if got := dst.MatchLen(seq(1, 2, 3)); got != 3 {
		t.Fatalf("imported unmarked path matches %d, want 3", got)
	}
}

func TestContinuationCountsAndWarmStart(t *testing.T) {
	c := New(Config{})
	// Same prompt, two completions; continuation 9 is observed twice, 8
	// once, at the prompt boundary.
	c.Insert(seq(1, 2, 9, 5), 2)
	c.Insert(seq(1, 2, 9, 6), 2)
	c.Insert(seq(1, 2, 8, 7), 2)

	var got [][2]int // (promptLen, continuation)
	obs := observerFunc(func(tokens []int, promptLen int) {
		got = append(got, [2]int{promptLen, tokens[len(tokens)-1]})
	})
	replayed := c.WarmStart(obs)
	if replayed != len(got) || replayed == 0 {
		t.Fatalf("replayed %d pairs, callback saw %d", replayed, len(got))
	}
	// The boundary node (depth 2) must replay 8 before 9 (least-frequent
	// first, so the most frequent continuation wins in a most-recent-wins
	// index).
	var boundaryOrder []int
	for _, g := range got {
		if g[0] == 2 {
			boundaryOrder = append(boundaryOrder, g[1])
		}
	}
	if !reflect.DeepEqual(boundaryOrder, []int{8, 9}) {
		t.Fatalf("boundary replay order %v, want [8 9]", boundaryOrder)
	}

	// Determinism: a second replay produces the identical sequence.
	var got2 [][2]int
	c.WarmStart(observerFunc(func(tokens []int, promptLen int) {
		got2 = append(got2, [2]int{promptLen, tokens[len(tokens)-1]})
	}))
	if !reflect.DeepEqual(got, got2) {
		t.Fatal("WarmStart replay is not deterministic")
	}
}

type observerFunc func(tokens []int, promptLen int)

func (f observerFunc) Observe(tokens []int, promptLen int) { f(tokens, promptLen) }

func TestEvictionRespectsBudget(t *testing.T) {
	c := New(Config{BudgetBytes: 2048})
	for i := 0; i < 200; i++ {
		c.Insert(seq(i, i+1, i+2, i+3), 2)
	}
	st := c.Stats()
	if st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d over budget %d with nothing pinned", st.ResidentBytes, st.BudgetBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
	if st.Nodes == 0 {
		t.Fatal("eviction emptied the cache entirely")
	}
}

func TestEvictionNeverFreesRetained(t *testing.T) {
	c := New(Config{BudgetBytes: 1024})
	pinned := seq(1000, 1001, 1002, 1003)
	c.Insert(pinned, len(pinned))
	n, m := c.Lookup(pinned)
	if n == nil || m != len(pinned) {
		t.Fatalf("pinned lookup matched %d", m)
	}
	// Flood the cache; the pinned path must survive arbitrary eviction.
	for i := 0; i < 500; i++ {
		c.Insert(seq(i, i+1, i+2, i+3, i+4), 2)
	}
	if got := c.MatchLen(pinned); got != len(pinned) {
		t.Fatalf("pinned prefix evicted: MatchLen = %d, want %d", got, len(pinned))
	}
	n.Release()
	// Once released, continued pressure may reclaim it.
	for i := 500; i < 1200; i++ {
		c.Insert(seq(i, i+1, i+2, i+3, i+4), 2)
	}
	if st := c.Stats(); st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d over budget %d after release", st.ResidentBytes, st.BudgetBytes)
	}
}

func TestNegativeBudgetDisablesEviction(t *testing.T) {
	c := New(Config{BudgetBytes: -1})
	for i := 0; i < 300; i++ {
		c.Insert(seq(i, i+1, i+2), 0)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions %d with eviction disabled", st.Evictions)
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	c := New(Config{})
	c.Insert(seq(1, 2), 0)
	n, _ := c.Lookup(seq(1, 2))
	n.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	n.Release()
}

func TestStatsAccounting(t *testing.T) {
	c := New(Config{})
	c.Insert(seq(1, 2, 3, 4), 2)
	if n, _ := c.Lookup(seq(1, 2, 3, 4)); n != nil {
		n.Release()
	}
	c.Lookup(seq(9, 9))
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.HitRate != 0.5 {
		t.Fatalf("lookup accounting: %+v", st)
	}
	if st.SavedPositions != 4 {
		t.Fatalf("saved positions %d, want 4", st.SavedPositions)
	}
	if st.Inserts != 1 {
		t.Fatalf("inserts %d, want 1", st.Inserts)
	}
	if c.Len() != st.Nodes || c.ResidentBytes() != st.ResidentBytes {
		t.Fatal("probe accessors disagree with Stats")
	}
}

func TestHotPrefixesAndClear(t *testing.T) {
	c := New(Config{})
	a := []int{1, 2, 3, 4}
	b := []int{1, 2, 9, 9}
	c.Insert(a, 2)
	c.Insert(b, 2)
	// Touch a's path so it is most recently used.
	n, matched := c.Lookup(a)
	if n == nil || matched != len(a) {
		t.Fatalf("lookup a: matched %d", matched)
	}
	hot := hotTokens(c, 2)
	if len(hot) != 2 {
		t.Fatalf("HotPrefixStats returned %d prefixes", len(hot))
	}
	// The hottest prefix must be a path of a (a itself or a shared prefix).
	first := hot[0]
	for i, tok := range first {
		if i >= len(a) || tok != a[i] {
			t.Fatalf("hottest prefix %v is not a prefix of %v", first, a)
		}
	}
	if got := c.HotPrefixStats(0); got != nil {
		t.Fatalf("HotPrefixStats(0) = %v", got)
	}
	// Replaying hot prefixes into a fresh cache re-warms it.
	warm := New(Config{})
	for _, p := range hotTokens(c, 64) {
		warm.Insert(p, len(p))
	}
	if warm.MatchLen(a) != len(a) || warm.MatchLen(b) != len(b) {
		t.Fatalf("re-warmed cache misses: a=%d b=%d", warm.MatchLen(a), warm.MatchLen(b))
	}
	// Clear drops everything except the pinned path: b's tail goes, but
	// the [1 2] prefix it shares with the retained path survives.
	c.Clear()
	if c.MatchLen(b) != 2 {
		t.Fatalf("Clear: match(b) = %d, want 2 (shared pinned prefix only)", c.MatchLen(b))
	}
	if c.MatchLen(a) != len(a) {
		t.Fatalf("Clear evicted a retained path (match %d)", c.MatchLen(a))
	}
	n.Release()
	c.Clear()
	if c.Len() != 0 || c.MatchLen(a) != 0 {
		t.Fatalf("Clear after release left %d nodes", c.Len())
	}
	if got := c.ResidentBytes(); got != 0 {
		t.Fatalf("Clear left %d resident bytes", got)
	}
}
