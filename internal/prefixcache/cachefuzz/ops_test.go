// Package cachefuzz_test fuzzes prefixcache.Cache against a reference
// model. It is a package of its own because a fuzz target links Go's
// fuzzing engine into its test binary, which would move the code of the
// pinned BenchmarkLookup inside internal/prefixcache.
package cachefuzz_test

import (
	"reflect"
	"strings"
	"testing"

	"fastrl/internal/prefixcache"
)

// Operation kinds, one per decoded opcode byte (mod opKinds).
const (
	opInsert  = iota // Insert(seq, promptLen) into both caches
	opLookup         // Lookup(seq) on both caches, then keep or release
	opRelease        // release one kept handle
	opExport         // Export a resident path, Import it elsewhere
	opClear          // Clear both caches
	opKinds
)

// budget is the budgeted cache's byte budget: a handful of nodes, so
// short sequences already evict.
const budget = 1 << 10

// cacheOp is one decoded operation.
type cacheOp struct {
	kind      int
	seq       []int // opInsert, opLookup
	promptLen int   // opInsert
	keep      bool  // opLookup
	idx, cut  int   // opRelease (idx), opExport (idx, cut)
}

// decodeOps reads a fuzz input as a run of operations over a 4-token
// alphabet, sequences of length 1–8: an opcode byte, then the operation's
// arguments. Decoding stops at the first operation the input cannot
// complete.
func decodeOps(data []byte) []cacheOp {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	readSeq := func() ([]int, bool) {
		n, ok := next()
		if !ok {
			return nil, false
		}
		s := make([]int, 1+n%8)
		for i := range s {
			if s[i], ok = next(); !ok {
				return nil, false
			}
			s[i] %= 4
		}
		return s, true
	}
	var ops []cacheOp
	for {
		code, ok := next()
		if !ok {
			return ops
		}
		op := cacheOp{kind: code % opKinds}
		var a, b int
		switch op.kind {
		case opInsert:
			if op.seq, ok = readSeq(); ok {
				a, ok = next()
				op.promptLen = a % (len(op.seq) + 1)
			}
		case opLookup:
			if op.seq, ok = readSeq(); ok {
				a, ok = next()
				op.keep = a%2 == 1
			}
		case opRelease:
			op.idx, ok = next()
		case opExport:
			if a, ok = next(); ok {
				b, ok = next()
				op.idx, op.cut = a, b
			}
		}
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// key names a token path in the model (tokens are 0–3).
func key(tokens []int) string {
	var sb strings.Builder
	for _, t := range tokens {
		sb.WriteByte(byte('0' + t))
	}
	return sb.String()
}

func unkey(k string) []int {
	out := make([]int, len(k))
	for i := range k {
		out[i] = int(k[i] - '0')
	}
	return out
}

// model is the reference for the unbounded cache. A radix tree without
// eviction has a node at every boundary: each inserted sequence's end and
// prompt boundary, and each point where two inserted sequences diverge.
// Clear keeps only the boundaries on a retained node's path.
type model struct {
	bounds map[string]bool // node paths
	marks  map[string]bool // prompt boundaries
	paths  []string        // inserted sequences, for divergence points
}

func (m *model) insert(s string, promptLen int) {
	m.bounds[s] = true
	if promptLen > 0 {
		m.bounds[s[:promptLen]] = true
		m.marks[s[:promptLen]] = true
	}
	for _, p := range m.paths {
		n := 0
		for n < len(s) && n < len(p) && s[n] == p[n] {
			n++
		}
		if n > 0 {
			m.bounds[s[:n]] = true
		}
	}
	m.paths = append(m.paths, s)
}

// matchLen is the longest boundary that is a prefix of q.
func (m *model) matchLen(q string) int {
	for n := len(q); n > 0; n-- {
		if m.bounds[q[:n]] {
			return n
		}
	}
	return 0
}

// promptLen is the deepest prompt boundary on the path to s.
func (m *model) promptLen(s string) int {
	for n := len(s); n > 0; n-- {
		if m.marks[s[:n]] {
			return n
		}
	}
	return 0
}

// clear keeps the boundaries, marks and paths that lie on a retained path.
func (m *model) clear(retained []string) {
	onRetained := func(b string) bool {
		for _, r := range retained {
			if strings.HasPrefix(r, b) {
				return true
			}
		}
		return false
	}
	for b := range m.bounds {
		if !onRetained(b) {
			delete(m.bounds, b)
			delete(m.marks, b)
		}
	}
	m.paths = append([]string(nil), retained...)
}

// where names a node: its cache (0 unbounded, 1 budgeted) and its path.
type where struct {
	cache int
	path  string
}

// handle is one kept Lookup result.
type handle struct {
	where
	node *prefixcache.Node
}

// outcome is what two runs of the same operations must agree on.
type outcome struct {
	stats [3]prefixcache.Stats
	hot   [3][]prefixcache.PrefixStat
}

// FuzzCacheOps drives an unbounded cache, a budgeted cache and an import
// target through a decoded operation sequence and checks, after every
// operation: the unbounded cache's nodes and match lengths equal the
// reference model's; every node Lookup returns is a true prefix of its
// query at depth matched; each kept node's Refs equals its kept handles
// and its path stays matched; the budgeted cache fits its budget after
// an Insert with nothing kept; an export carries the model's prompt
// boundary and an import reproduces the path. Two runs of the same
// operations end in equal Stats and HotPrefixStats.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		first := runOps(t, ops)
		if second := runOps(t, ops); !reflect.DeepEqual(first, second) {
			t.Fatalf("same operations, different outcome:\n%+v\n%+v", first, second)
		}
	})
}

func runOps(t *testing.T, ops []cacheOp) outcome {
	unb := prefixcache.New(prefixcache.Config{BudgetBytes: -1})
	bud := prefixcache.New(prefixcache.Config{BudgetBytes: budget})
	dst := prefixcache.New(prefixcache.Config{BudgetBytes: -1})
	caches := [2]*prefixcache.Cache{unb, bud}
	ref := &model{bounds: map[string]bool{}, marks: map[string]bool{}}
	var kept []handle

	for i, op := range ops {
		switch op.kind {
		case opInsert:
			unb.Insert(op.seq, op.promptLen)
			bud.Insert(op.seq, op.promptLen)
			ref.insert(key(op.seq), op.promptLen)
			if st := bud.Stats(); !keptIn(kept, 1) && st.ResidentBytes > budget {
				t.Fatalf("op %d: budgeted cache holds %d bytes with nothing kept, budget %d", i, st.ResidentBytes, budget)
			}
		case opLookup:
			for c, cache := range caches {
				n, matched := cache.Lookup(op.seq)
				if c == 0 && matched != ref.matchLen(key(op.seq)) {
					t.Fatalf("op %d: Lookup(%v) matched %d, model %d", i, op.seq, matched, ref.matchLen(key(op.seq)))
				}
				if n == nil {
					if matched != 0 {
						t.Fatalf("op %d: miss with matched %d", i, matched)
					}
					continue
				}
				if n.Depth() != matched || !reflect.DeepEqual(n.AppendTokens(nil), op.seq[:matched]) {
					t.Fatalf("op %d: Lookup(%v) node at depth %d with path %v, matched %d",
						i, op.seq, n.Depth(), n.AppendTokens(nil), matched)
				}
				if op.keep {
					kept = append(kept, handle{where{c, key(op.seq[:matched])}, n})
				} else {
					n.Release()
				}
			}
		case opRelease:
			if len(kept) > 0 {
				j := op.idx % len(kept)
				kept[j].node.Release()
				kept = append(kept[:j], kept[j+1:]...)
			}
		case opExport:
			if len(ref.paths) == 0 {
				break
			}
			p := ref.paths[op.idx%len(ref.paths)]
			tokens := unkey(p[:1+op.cut%len(p)])
			ex, ok := unb.Export(tokens)
			if want := ref.bounds[key(tokens)]; ok != want {
				t.Fatalf("op %d: Export(%v) ok = %v, want %v", i, tokens, ok, want)
			}
			if !ok {
				break
			}
			if want := ref.promptLen(key(tokens)); ex.PromptLen != want || !reflect.DeepEqual(ex.Tokens, tokens) {
				t.Fatalf("op %d: Export(%v) = %+v, want PromptLen %d", i, tokens, ex, want)
			}
			for _, into := range []*prefixcache.Cache{prefixcache.New(prefixcache.Config{BudgetBytes: -1}), dst} {
				into.Import(ex)
				if got := into.MatchLen(tokens); got != len(tokens) {
					t.Fatalf("op %d: imported %v matches %d", i, tokens, got)
				}
				if ex.PromptLen > 0 {
					n, matched := into.Lookup(tokens[:ex.PromptLen])
					if matched != ex.PromptLen {
						t.Fatalf("op %d: imported prompt %v matches %d", i, tokens[:ex.PromptLen], matched)
					}
					n.Release()
				}
			}
		case opClear:
			unb.Clear()
			bud.Clear()
			var retained []string
			for _, h := range kept {
				if h.cache == 0 {
					retained = append(retained, h.path)
				}
			}
			ref.clear(retained)
		}
		checkModel(t, i, unb, ref)
		checkKept(t, i, caches, kept)
	}

	var out outcome
	for c, cache := range []*prefixcache.Cache{unb, bud, dst} {
		out.stats[c] = cache.Stats()
		out.hot[c] = cache.HotPrefixStats(1 << 10)
	}
	for _, h := range kept {
		h.node.Release()
	}
	return out
}

func keptIn(kept []handle, cache int) bool {
	for _, h := range kept {
		if h.cache == cache {
			return true
		}
	}
	return false
}

// checkModel checks that the unbounded cache has a node at every model
// boundary and no other.
func checkModel(t *testing.T, i int, c *prefixcache.Cache, ref *model) {
	t.Helper()
	if c.Len() != len(ref.bounds) {
		t.Fatalf("op %d: unbounded cache holds %d nodes, model %d", i, c.Len(), len(ref.bounds))
	}
	for b := range ref.bounds {
		if got := c.MatchLen(unkey(b)); got != len(b) {
			t.Fatalf("op %d: boundary %s matches %d, want %d", i, b, got, len(b))
		}
	}
}

// checkKept checks each kept node's reference count against the kept
// handles and that its path is still resident.
func checkKept(t *testing.T, i int, caches [2]*prefixcache.Cache, kept []handle) {
	t.Helper()
	count := map[where]int{}
	for _, h := range kept {
		count[h.where]++
	}
	for _, h := range kept {
		if got, want := h.node.Refs(), count[h.where]; got != want {
			t.Fatalf("op %d: node %s of cache %d has %d refs, %d kept handles", i, h.path, h.cache, got, want)
		}
		if got := caches[h.cache].MatchLen(unkey(h.path)); got != len(h.path) {
			t.Fatalf("op %d: kept path %s of cache %d matches %d", i, h.path, h.cache, got)
		}
	}
}
