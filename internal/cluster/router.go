package cluster

import "sync/atomic"

// Policy picks a shard for a request out of the live serving set. Pick is
// the router hot path: implementations must not allocate and must be safe
// for concurrent use.
type Policy interface {
	Name() string
	// Pick returns an index into live. live holds the IDs of the shards
	// currently accepting traffic (never empty) in ascending order, and
	// loads[i] is live[i]'s outstanding request count (queued + inflight).
	Pick(prompt []int, live []int, loads []int) int
}

// RoundRobin cycles requests uniformly over the live shards.
type RoundRobin struct {
	n atomic.Uint64
}

// NewRoundRobin builds the round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(prompt []int, live []int, loads []int) int {
	return int((p.n.Add(1) - 1) % uint64(len(live)))
}

// LeastLoaded sends each request to the shard with the fewest outstanding
// requests, tie-broken toward the lowest shard ID.
type LeastLoaded struct{}

// NewLeastLoaded builds the queue-depth-weighted policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (p *LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (p *LeastLoaded) Pick(prompt []int, live []int, loads []int) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[best] {
			best = i
		}
	}
	return best
}

// PrefixAffinity pins requests that share a prompt prefix to the same
// shard via rendezvous (highest-random-weight) hashing over shard IDs.
// Related requests then hit the shard whose drafter context — harvested
// n-grams, warmed CUDA graphs — already matches them, and because the
// weight is a pure function of (prefix hash, shard ID), a shard joining or
// leaving the live set only moves the prefixes that scored it highest;
// everything else stays put.
type PrefixAffinity struct {
	// PrefixLen is how many leading prompt tokens define the affinity key.
	PrefixLen int
}

// NewPrefixAffinity builds the policy; prefixLen < 1 defaults to 8.
func NewPrefixAffinity(prefixLen int) *PrefixAffinity {
	if prefixLen < 1 {
		prefixLen = 8
	}
	return &PrefixAffinity{PrefixLen: prefixLen}
}

// Name implements Policy.
func (p *PrefixAffinity) Name() string { return "prefix-affinity" }

// Pick implements Policy.
func (p *PrefixAffinity) Pick(prompt []int, live []int, loads []int) int {
	h := hashPrefix(prompt, p.PrefixLen)
	best, bestW := 0, rendezvousWeight(h, live[0])
	for i := 1; i < len(live); i++ {
		if w := rendezvousWeight(h, live[i]); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// hashPrefix is FNV-1a over the first n prompt tokens with an avalanche
// finaliser.
func hashPrefix(prompt []int, n int) uint64 {
	if n > len(prompt) {
		n = len(prompt)
	}
	h := uint64(14695981039346656037)
	for _, t := range prompt[:n] {
		h ^= uint64(uint32(t))
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// rendezvousWeight mixes a prefix hash with a shard ID (splitmix64
// finaliser) for highest-random-weight selection.
func rendezvousWeight(h uint64, shard int) uint64 {
	x := h ^ (uint64(shard)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
