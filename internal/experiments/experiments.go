// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6), driven by cmd/tltbench and checked by this
// package's tests. Each runner regenerates the artefact's rows/series
// from the simulator, and its notes set the measured values beside the
// paper's.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fastrl/internal/metrics"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks workloads for tests and CI.
	Quick bool
	// Seed overrides the default experiment seed.
	Seed int64
	// Trace enables request-lifecycle tracing in experiments that support
	// it (batching traces its continuous-16 arm); the exported Chrome
	// trace lands in Result.TraceChrome. Off by default: tracing is never
	// on in the measured hot path unless explicitly requested.
	Trace bool
}

// Result is one regenerated artefact.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Series []metrics.Series
	Notes  []string
	// Metrics holds numbers that tests and tltbench check, keyed by a
	// stable name (e.g. "with/availability"): the acceptance tests of the
	// wall-clock experiments (batching, cache, chaos) read them, and
	// tltbench -trace reconciles "traced_requests" with the export. The
	// printed tables carry the figures themselves.
	Metrics map[string]float64
	// TraceChrome is the exported Chrome trace_event JSON when the
	// experiment ran with Options.Trace (tltbench -trace writes it to
	// disk and self-validates it against the "traced_requests" metric).
	TraceChrome []byte
}

// Metric records one headline number, allocating the map on first use.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %s:\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "  %10.3f  %12.4f\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner regenerates one artefact.
type Runner func(Options) (*Result, error)

var registry = map[string]struct {
	title string
	run   Runner
}{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = struct {
		title string
		run   Runner
	}{title, run}
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's description.
func Title(id string) string { return registry[id].title }

// Run executes one experiment.
func Run(id string, opts Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	r, err := e.run(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	r.ID = id
	r.Title = e.title
	return r, nil
}
