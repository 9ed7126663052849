// Cross-cache surface of the prefix cache: ranked hot-prefix stats and
// self-contained prefix export/import (tokens + prompt boundary), which
// the cluster's warm handoff uses to re-warm a revived shard from the
// survivors. None of this touches the Lookup/MatchLen hot paths;
// everything here may allocate.
package prefixcache

import "sort"

// PrefixStat is one ranked entry from HotPrefixStats: a full token prefix
// resident in the cache and how many Lookup walks terminated on it.
type PrefixStat struct {
	Tokens []int
	Hits   int64
}

// HotPrefixStats returns up to k resident prefixes ranked by Lookup hit
// count descending, ties broken by node-creation order (older first). The
// order is a pure function of the operation history — no map iteration,
// no timestamps — so warm handoffs built from it are deterministic under
// a fixed seed. Each Tokens slice is freshly allocated; the caller owns
// it.
func (c *Cache) HotPrefixStats(k int) []PrefixStat {
	if k <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ranked := make([]*Node, 0, c.nodes)
	for n := c.lru.next; n != &c.lru; n = n.next {
		ranked = append(ranked, n)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].hits != ranked[j].hits {
			return ranked[i].hits > ranked[j].hits
		}
		return ranked[i].seq < ranked[j].seq
	})
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]PrefixStat, len(ranked))
	for i, n := range ranked {
		out[i] = PrefixStat{Tokens: n.AppendTokens(nil), Hits: n.hits}
	}
	return out
}

// ExportedPrefix is a self-contained copy of one cached prefix, fit to
// ship across shards: the full token path and PromptLen, the depth of the
// deepest prompt boundary on it (0 when no node on the path is marked).
type ExportedPrefix struct {
	Tokens    []int
	PromptLen int
}

// Export snapshots the prefix at tokens for copying into another cache.
// It fails (ok false) unless the full token run is resident: the source
// may have evicted part of it since its hot-prefix stats were taken.
func (c *Cache) Export(tokens []int) (ExportedPrefix, bool) {
	if len(tokens) == 0 {
		return ExportedPrefix{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.walk(tokens, false)
	if n == nil || n.depth != len(tokens) {
		return ExportedPrefix{}, false
	}
	ex := ExportedPrefix{Tokens: append([]int(nil), tokens...)}
	for b := n; b.parent != nil; b = b.parent {
		if b.prompt {
			ex.PromptLen = b.depth
			break
		}
	}
	return ex, true
}

// Import installs an exported prefix: the path is created and the node at
// PromptLen (if any) is marked as a prompt boundary — exactly an Insert of
// the copied sequence, so all budget/eviction/continuation accounting
// applies unchanged. Hit counts do not transfer; they are per-shard access
// statistics.
func (c *Cache) Import(p ExportedPrefix) {
	c.Insert(p.Tokens, p.PromptLen)
}
