// Postmortem captures: when a shard dies, its flight-recorder
// ring is snapshotted into a bounded per-cluster log, so every chaos fault
// leaves a capture of the spans (and fault markers) that led up to it —
// the in-memory analogue of pulling a crashed worker's trace buffer.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"fastrl/internal/trace"
)

// Postmortem is one captured flight-recorder snapshot, taken when a shard
// crashed (injected, detected server-side, or escalated from a hang).
type Postmortem struct {
	// Shard is the shard the capture was taken from.
	Shard int
	// At is the virtual time of the triggering transition.
	At time.Duration
	// Reason is the fault class that triggered the capture: FaultCrash for
	// death, including hang escalation.
	Reason FaultKind
	// Records is the ring snapshot, oldest first — the newest spans the
	// shard recorded before the capture, including fault markers.
	Records []trace.Record
}

// String renders a compact human-readable dump for failure reports.
func (p Postmortem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "postmortem shard %d at %v (%v), %d records:\n",
		p.Shard, p.At, p.Reason, len(p.Records))
	for _, r := range p.Records {
		fmt.Fprintf(&b, "  req=%-6d %-12s [%v → %v] arg=%d\n",
			r.ReqID, r.Kind, r.Start, r.End, r.Arg)
	}
	return b.String()
}

// maxPostmortems bounds the capture log: chaos runs inject a handful of
// faults, so 32 keeps every capture while still bounding memory over a
// long run of faults.
const maxPostmortems = 32

// capturePostmortem snapshots shard id's flight ring into the postmortem
// log. Oldest captures win when the bound is hit — the first faults of a
// cascade are the interesting ones.
func (c *Cluster) capturePostmortem(id int, at time.Duration, reason FaultKind) {
	recs := c.shards[id].flight.Snapshot()
	c.pmMu.Lock()
	if len(c.postmortems) < maxPostmortems {
		c.postmortems = append(c.postmortems, Postmortem{
			Shard: id, At: at, Reason: reason, Records: recs,
		})
	}
	c.pmMu.Unlock()
}

// Postmortems returns the captures taken so far, oldest first.
func (c *Cluster) Postmortems() []Postmortem {
	c.pmMu.Lock()
	out := make([]Postmortem, len(c.postmortems))
	copy(out, c.postmortems)
	c.pmMu.Unlock()
	return out
}
