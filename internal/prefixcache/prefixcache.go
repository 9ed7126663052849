// Package prefixcache implements a shared radix (compressed trie) cache
// over token prefixes — the serving-side analogue of a paged KV prefix
// cache. Templated workloads send thousands of requests that open with the
// same system/few-shot prefix; every one of them pays full prefill even
// though the target state over the shared prefix is identical. The cache
// marks, per trie node, whether a prompt ended on it (the byte budget
// charges each marked boundary for the target state resident there,
// standing in for the KV pages of that prefix) and keeps harvested
// continuation statistics, so:
//
//   - the rollout engine can skip recomputing prefill positions covered by
//     a cached prefix (Lookup is the hot path: zero allocations per call);
//   - a freshly attached n-gram drafter can warm-start from the harvested
//     continuation counts (WarmStart replays them through Observe), giving
//     affinity-routed shards a hot drafter immediately;
//   - a shard revived after a crash re-warms from the survivors' hottest
//     prefixes (HotPrefixStats, Export/Import) instead of starting cold.
//
// Residency is bounded by a byte budget with LRU eviction. Nodes are
// reference-counted: a request that resumed decoding from a cached prefix
// retains its node until the run completes, and eviction never frees a
// retained node (or any node with children, so a retained leaf pins its
// whole path). The cache contains no randomness — identical operation
// sequences produce identical trees, hit counts, and evictions.
package prefixcache

import (
	"sync"
	"sync/atomic"

	"fastrl/internal/metrics"
)

// Approximate per-object resident-byte costs used by the eviction budget.
// They only need to be stable and roughly proportional to real memory so
// the budget is meaningful; exact malloc accounting is not the point.
const (
	nodeOverheadBytes = 96 // struct, LRU links, map headers
	tokenBytes        = 8  // one label token
	childEntryBytes   = 16 // one children map entry
	contEntryBytes    = 16 // one continuation-count map entry
	// promptStateBytes models the target state resident at a prompt
	// boundary. It equals what the cache once stored there, a
	// model.HiddenState of sketch 0 and the top tokens (a 48-byte header,
	// 32 float32s and 4 tokens), so the budget evicts the same nodes.
	promptStateBytes = 208
)

// DefaultBudgetBytes is the default eviction budget (1 MiB of modelled
// resident state, a few thousand nodes at typical prompt lengths).
const DefaultBudgetBytes = 1 << 20

// Config parameterises a Cache.
type Config struct {
	// BudgetBytes caps modelled resident bytes; eviction runs after every
	// insert until the cache fits (retained nodes are never evicted, so a
	// burst of in-flight requests can hold the cache over budget
	// transiently). 0 means DefaultBudgetBytes; negative disables eviction.
	BudgetBytes int64
}

// Cache is a shared, concurrency-safe radix prefix cache.
type Cache struct {
	mu   sync.Mutex
	root *Node
	// lru is a sentinel-headed doubly-linked list of every non-root node,
	// most recently used first.
	lru Node
	// resident is the modelled resident byte count.
	resident int64
	budget   int64

	// lookups is hit/miss accounting over Lookup calls (a lookup that
	// matches at least one token is a hit).
	lookups metrics.Ratio
	// saved accumulates matched prefix lengths returned by Lookup — the
	// prefill positions callers were able to skip.
	saved     metrics.Counter
	inserts   metrics.Counter
	evictions metrics.Counter
	nodes     int

	// nodeSeq numbers nodes in creation order; together with per-node hit
	// counts it gives HotPrefixStats a deterministic total order.
	nodeSeq uint64
}

// Node is one radix-tree node: the compressed token run from its parent,
// whether a prompt ended on the prefix boundary it ends on, and
// continuation counts harvested from inserted sequences.
type Node struct {
	parent *Node
	// label is the edge token run from parent; nil only for the root and
	// the LRU sentinel.
	label []int
	// children is keyed by the first token of each child's label.
	children map[int]*Node
	// depth is the total prefix length from the root through label.
	depth int
	// refs counts in-flight requests decoding on top of this prefix.
	// Guarded by the cache lock for the 0→1 transition (Lookup); Release
	// is lock-free.
	refs atomic.Int32
	// prompt marks that an inserted sequence's prompt ended at this
	// boundary, which the budget charges promptStateBytes for. Guarded by
	// the cache lock.
	prompt bool
	// cont counts observed continuations: token that followed this prefix
	// -> occurrences.
	cont map[int]uint32
	// hits counts Lookup walks that terminated at this node and seq is the
	// creation sequence number; both guarded by the cache lock.
	hits int64
	seq  uint64

	prev, next *Node
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	budget := cfg.BudgetBytes
	if budget == 0 {
		budget = DefaultBudgetBytes
	}
	c := &Cache{
		root:   &Node{children: make(map[int]*Node)},
		budget: budget,
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Depth returns the prefix length this node represents.
func (n *Node) Depth() int { return n.depth }

// Refs returns the current reference count (diagnostics and tests).
func (n *Node) Refs() int { return int(n.refs.Load()) }

// Release drops one reference taken by Lookup. The node becomes evictable
// again once its count reaches zero. Safe to call concurrently.
func (n *Node) Release() {
	if n == nil {
		return
	}
	if n.refs.Add(-1) < 0 {
		panic("prefixcache: Release without matching Lookup")
	}
}

// AppendTokens appends the full token prefix this node represents to dst
// and returns it (root-to-node order).
func (n *Node) AppendTokens(dst []int) []int {
	if n == nil || n.parent == nil {
		return dst
	}
	dst = n.parent.AppendTokens(dst)
	return append(dst, n.label...)
}

// Lookup walks the deepest chain of fully-matched edges for tokens and
// returns the deepest node together with its matched prefix length. The
// returned node is retained: the caller must Release it when it no longer
// depends on the cached prefix state. A miss returns (nil, 0) and retains
// nothing. Matched nodes are touched to the front of the LRU order.
//
// Lookup is the routing/prefill hot path and performs no heap allocations.
func (c *Cache) Lookup(tokens []int) (*Node, int) {
	c.mu.Lock()
	n := c.walk(tokens, true)
	var matched int
	if n != nil {
		matched = n.depth
		n.refs.Add(1)
		n.hits++
	}
	c.lookups.Observe(n != nil)
	c.saved.Add(int64(matched))
	c.mu.Unlock()
	return n, matched
}

// MatchLen returns the matched prefix length Lookup would report, without
// retaining anything, touching the LRU order, or counting toward the
// hit-rate accounting: a read-only residency probe, allocation-free like
// Lookup.
func (c *Cache) MatchLen(tokens []int) int {
	c.mu.Lock()
	n := c.walk(tokens, false)
	c.mu.Unlock()
	if n == nil {
		return 0
	}
	return n.depth
}

// walk descends fully-matched edges and returns the deepest non-root node
// reached, nil when not even the first edge matched. touch moves every
// matched node to the LRU front. Caller holds c.mu.
func (c *Cache) walk(tokens []int, touch bool) *Node {
	cur := c.root
	pos := 0
	var deepest *Node
	for pos < len(tokens) {
		child, ok := cur.children[tokens[pos]]
		if !ok {
			break
		}
		if len(tokens)-pos < len(child.label) || !labelMatches(child.label, tokens[pos:]) {
			break
		}
		pos += len(child.label)
		cur = child
		deepest = child
		if touch {
			c.touch(child)
		}
	}
	return deepest
}

func labelMatches(label, tokens []int) bool {
	for i, t := range label {
		if tokens[i] != t {
			return false
		}
	}
	return true
}

// Insert records one completed sequence (prompt + response) into the
// cache: the path is created (splitting compressed edges as needed),
// continuation counts along it are incremented, node boundaries are forced
// at promptLen and len(tokens), and the node at promptLen is marked as a
// prompt boundary, charged promptStateBytes the first time. A promptLen of
// 0 marks nothing (the root carries no state). It then runs eviction
// until the cache fits its budget. Inserting an empty sequence is a no-op.
func (c *Cache) Insert(tokens []int, promptLen int) {
	if len(tokens) == 0 {
		return
	}
	if promptLen < 0 {
		promptLen = 0
	}
	if promptLen > len(tokens) {
		promptLen = len(tokens)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inserts.Inc()

	cur := c.root
	pos := 0
	// boundary is the node ending exactly at promptLen; stays nil when
	// promptLen is 0 (the root carries no state).
	var boundary *Node
	for pos < len(tokens) {
		child, ok := cur.children[tokens[pos]]
		if !ok {
			// No edge: create the remaining path, with a forced boundary
			// at promptLen when it falls inside this new run.
			end := len(tokens)
			if promptLen > pos && promptLen < end {
				end = promptLen
			}
			child = c.newNode(cur, tokens[pos:end])
			pos = end
			cur = child
			continue
		}
		// Shared run length between the edge label and remaining tokens,
		// clipped so a node boundary lands exactly on promptLen.
		share := sharedLen(child.label, tokens[pos:])
		if promptLen > pos && promptLen < pos+share {
			share = promptLen - pos
		}
		if share < len(child.label) {
			child = c.split(child, share)
		}
		pos += share
		cur = child
	}
	// Harvest continuation counts and locate the prompt boundary by
	// walking back up the freshly-ensured path (every node on it is an
	// ancestor of cur).
	for n := cur; n != nil && n.parent != nil; n = n.parent {
		if n.depth < len(tokens) {
			c.addCont(n, tokens[n.depth])
		}
		if n.depth == promptLen {
			boundary = n
		}
	}
	if boundary != nil && !boundary.prompt {
		boundary.prompt = true
		c.resident += promptStateBytes
	}
	c.evict()
}

// newNode creates a child of parent with the given label run (copied) and
// links it into the tree, LRU order, and byte accounting.
func (c *Cache) newNode(parent *Node, run []int) *Node {
	c.nodeSeq++
	n := &Node{
		parent: parent,
		label:  append([]int(nil), run...),
		depth:  parent.depth + len(run),
		seq:    c.nodeSeq,
	}
	if parent.children == nil {
		parent.children = make(map[int]*Node, 1)
	}
	parent.children[run[0]] = n
	c.nodes++
	c.resident += nodeOverheadBytes + int64(len(run))*tokenBytes + childEntryBytes
	c.lruPushFront(n)
	return n
}

// split cuts node's label at offset k (0 < k < len(label)), inserting a
// new mid node above it. The original node keeps its payload, references,
// and identity (so retained pointers stay valid); the mid node is fresh.
func (c *Cache) split(n *Node, k int) *Node {
	c.nodeSeq++
	mid := &Node{
		parent:   n.parent,
		label:    n.label[:k:k],
		children: map[int]*Node{n.label[k]: n},
		depth:    n.depth - len(n.label) + k,
		seq:      c.nodeSeq,
	}
	n.parent.children[n.label[0]] = mid
	n.parent = mid
	n.label = n.label[k:]
	c.nodes++
	// One extra node plus one extra child entry; label tokens are split,
	// not duplicated (both halves alias the original backing array).
	c.resident += nodeOverheadBytes + childEntryBytes
	c.lruPushFront(mid)
	return mid
}

func (c *Cache) addCont(n *Node, tok int) {
	if n.cont == nil {
		n.cont = make(map[int]uint32, 1)
	}
	if _, ok := n.cont[tok]; !ok {
		c.resident += contEntryBytes
	}
	n.cont[tok]++
}

// evict frees least-recently-used leaves until the cache fits its budget.
// Nodes with live references or children are skipped: a retained leaf pins
// itself, and interior nodes become evictable only once their subtrees
// have been reclaimed. Each outer iteration is one full tail-to-head
// sweep that frees every evictable node it passes (not one node per
// scan, which would re-walk the unevictable tail per eviction); a follow
// -up sweep only runs when the previous one freed something but the
// budget still isn't met — e.g. interior nodes that became leaves behind
// the sweep point. Caller holds c.mu.
func (c *Cache) evict() {
	if c.budget < 0 {
		return
	}
	for c.resident > c.budget {
		freed := 0
		for n := c.lru.prev; n != &c.lru && c.resident > c.budget; {
			prev := n.prev
			if len(n.children) == 0 && n.refs.Load() == 0 {
				c.remove(n)
				freed++
			}
			n = prev
		}
		if freed == 0 {
			return // everything left is pinned; stay over budget
		}
	}
}

// remove unlinks a childless node from the tree, LRU order, and byte
// accounting. Caller holds c.mu.
func (c *Cache) remove(n *Node) {
	delete(n.parent.children, n.label[0])
	c.lruUnlink(n)
	c.nodes--
	c.evictions.Inc()
	c.resident -= nodeOverheadBytes + int64(len(n.label))*tokenBytes + childEntryBytes
	c.resident -= int64(len(n.cont)) * contEntryBytes
	if n.prompt {
		c.resident -= promptStateBytes
	}
	n.parent = nil
}

func (c *Cache) lruPushFront(n *Node) {
	n.prev = &c.lru
	n.next = c.lru.next
	n.prev.next = n
	n.next.prev = n
}

func (c *Cache) lruUnlink(n *Node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (c *Cache) touch(n *Node) {
	c.lruUnlink(n)
	c.lruPushFront(n)
}

func sharedLen(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	// Lookups/Hits/HitRate cover Lookup calls (MatchLen probes excluded).
	Lookups int64
	Hits    int64
	HitRate float64
	// SavedPositions is the cumulative matched prefix length over all
	// lookups — prefill positions callers skipped recomputing.
	SavedPositions int64
	Inserts        int64
	Evictions      int64
	Nodes          int
	ResidentBytes  int64
	BudgetBytes    int64
}

// Stats returns the current snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	nodes, resident := c.nodes, c.resident
	c.mu.Unlock()
	return Stats{
		Lookups:        c.lookups.Total(),
		Hits:           c.lookups.Hits(),
		HitRate:        c.lookups.Rate(),
		SavedPositions: c.saved.Load(),
		Inserts:        c.inserts.Load(),
		Evictions:      c.evictions.Load(),
		Nodes:          nodes,
		ResidentBytes:  resident,
		BudgetBytes:    c.budget,
	}
}

// Clear drops every unpinned node (retained paths survive, like eviction),
// resetting the cache for a cold restart. Byte and node accounting stay
// consistent; hit/insert counters are not reset.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		freed := 0
		for n := c.lru.prev; n != &c.lru; {
			prev := n.prev
			if len(n.children) == 0 && n.refs.Load() == 0 {
				c.remove(n)
				freed++
			}
			n = prev
		}
		if freed == 0 {
			return
		}
	}
}

// HitRate returns the Lookup hit rate (0 before the first lookup).
func (c *Cache) HitRate() float64 { return c.lookups.Rate() }

// ResidentBytes returns the modelled resident byte count.
func (c *Cache) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// Len returns the number of resident nodes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes
}

// RegisterMetrics registers the cache's point-in-time probes as gauges
// under the given name prefix (e.g. "cache/"). The probes take only the
// cache's own lock, so they are safe to sample from inside a registry
// snapshot.
func (c *Cache) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Gauge(prefix+"hit_rate", c.HitRate)
	reg.Gauge(prefix+"resident_bytes", func() float64 { return float64(c.ResidentBytes()) })
	reg.Gauge(prefix+"nodes", func() float64 { return float64(c.Len()) })
}
