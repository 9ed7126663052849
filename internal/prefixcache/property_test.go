package prefixcache

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkInvariants walks the whole tree and verifies structural and
// accounting invariants after an arbitrary operation interleaving:
//   - parent/child links are consistent and child map keys match labels;
//   - depths equal the cumulative label length;
//   - every node is on the LRU list exactly once (and vice versa);
//   - recomputed resident bytes match the incremental accounting;
//   - every retained node is still reachable from the root.
func checkInvariants(t *testing.T, c *Cache, retained map[*Node][]int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()

	onLRU := map[*Node]bool{}
	for n := c.lru.next; n != &c.lru; n = n.next {
		if onLRU[n] {
			t.Fatal("node appears twice on the LRU list")
		}
		onLRU[n] = true
	}

	var resident int64
	var nodes int
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		for first, child := range n.children {
			if child.parent != n {
				t.Fatal("child parent link broken")
			}
			if len(child.label) == 0 || child.label[0] != first {
				t.Fatalf("child key %d does not match label %v", first, child.label)
			}
			if child.depth != n.depth+len(child.label) {
				t.Fatalf("depth %d != parent %d + label %d", child.depth, n.depth, len(child.label))
			}
			if !onLRU[child] {
				t.Fatal("tree node missing from LRU list")
			}
			seen[child] = true
			nodes++
			resident += nodeOverheadBytes + int64(len(child.label))*tokenBytes + childEntryBytes
			resident += int64(len(child.cont)) * contEntryBytes
			if child.prompt {
				resident += promptStateBytes
			}
			visit(child)
		}
	}
	visit(c.root)

	if nodes != c.nodes {
		t.Fatalf("node count %d != accounted %d", nodes, c.nodes)
	}
	if resident != c.resident {
		t.Fatalf("recomputed resident %d != accounted %d", resident, c.resident)
	}
	for n := range onLRU {
		if !seen[n] {
			t.Fatal("LRU node not reachable from root (freed node still listed?)")
		}
	}
	for n, tokens := range retained {
		if !seen[n] {
			t.Fatalf("retained node for %v was evicted", tokens)
		}
	}
}

// TestPropertyEvictionAndLookup drives a random interleaving of inserts,
// lookups (some retained across later operations), releases, and
// budget-pressure evictions, checking after every step that (a) no node
// with live references is freed and (b) Lookup always returns a true
// prefix of its query with matching node depth.
func TestPropertyEvictionAndLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	c := New(Config{BudgetBytes: 8 << 10})

	// A templated population: few shared prefixes, many suffixes, so
	// lookups hit at varying depths and edges split often.
	prefixes := make([][]int, 6)
	for i := range prefixes {
		p := make([]int, 4+rng.Intn(6))
		for j := range p {
			p[j] = rng.Intn(40)
		}
		prefixes[i] = p
	}
	mkSeq := func() ([]int, int) {
		p := prefixes[rng.Intn(len(prefixes))]
		s := append([]int(nil), p...)
		for j, n := 0, 1+rng.Intn(8); j < n; j++ {
			s = append(s, rng.Intn(40))
		}
		return s, len(p)
	}

	retained := map[*Node][]int{}
	var handles []*Node
	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert, sometimes without a prompt boundary
			s, pl := mkSeq()
			if rng.Intn(3) == 0 {
				pl = 0
			}
			c.Insert(s, pl)
		case 4, 5, 6: // lookup, sometimes retain across future steps
			q, _ := mkSeq()
			n, m := c.Lookup(q)
			if n == nil {
				if m != 0 {
					t.Fatalf("nil node with matched %d", m)
				}
				break
			}
			if m != n.Depth() {
				t.Fatalf("matched %d != node depth %d", m, n.Depth())
			}
			if got := n.AppendTokens(nil); !reflect.DeepEqual(got, q[:m]) {
				t.Fatalf("step %d: node tokens %v are not a true prefix of %v", step, got, q)
			}
			if rng.Intn(3) == 0 {
				retained[n] = append([]int(nil), q[:m]...)
				handles = append(handles, n)
			} else {
				n.Release()
			}
		case 7: // release one retained handle
			if len(handles) > 0 {
				i := rng.Intn(len(handles))
				n := handles[i]
				n.Release()
				if n.Refs() == 0 {
					delete(retained, n)
				}
				handles = append(handles[:i], handles[i+1:]...)
			}
		default: // heavy insert burst to force eviction pressure
			for k := 0; k < 5; k++ {
				s, pl := mkSeq()
				c.Insert(s, pl)
			}
		}
		if step%50 == 0 {
			checkInvariants(t, c, retained)
		}
	}
	checkInvariants(t, c, retained)

	// Drain all handles; the cache must then be able to honour its budget.
	for _, n := range handles {
		n.Release()
	}
	c.Insert([]int{1, 2, 3}, 0) // trigger one more eviction pass
	if st := c.Stats(); st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d over budget %d with nothing retained", st.ResidentBytes, st.BudgetBytes)
	}
}

// TestPropertyDeterministic pins cache determinism: two caches fed the
// identical operation sequence end in identical stats and answer identical
// lookups.
func TestPropertyDeterministic(t *testing.T) {
	run := func() (Stats, []int) {
		rng := rand.New(rand.NewSource(42))
		c := New(Config{BudgetBytes: 4 << 10})
		var matches []int
		for i := 0; i < 1500; i++ {
			s := make([]int, 3+rng.Intn(10))
			for j := range s {
				s[j] = rng.Intn(25)
			}
			if rng.Intn(2) == 0 {
				c.Insert(s, len(s)/2)
			} else {
				n, m := c.Lookup(s)
				matches = append(matches, m)
				if n != nil {
					n.Release()
				}
			}
		}
		return c.Stats(), matches
	}
	s1, m1 := run()
	s2, m2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("lookup results diverged under identical seeds")
	}
}
