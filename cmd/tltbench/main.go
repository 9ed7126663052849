// Command tltbench regenerates the paper's tables and figures from the
// simulator. Run `tltbench -list` for available experiments, then e.g.
//
//	tltbench -exp fig11
//	tltbench -exp all -quick
//	tltbench -exp all -quick -json   // also write BENCH_<date>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"fastrl/internal/experiments"
	"fastrl/internal/trace"
)

// expPerf records one experiment's cost in the -json snapshot: wall time
// plus heap allocation deltas from runtime.MemStats (each experiment run
// counts as one "op").
type expPerf struct {
	ID     string `json:"id"`
	Ns     int64  `json:"ns_per_op"`
	Allocs uint64 `json:"allocs_per_op"`
	Bytes  uint64 `json:"bytes_per_op"`
}

// expFigure records one experiment's headline values (e.g. per-policy
// P50/P95, shed rate, utilisation for -exp cluster) so the snapshot tracks
// what the figures say, not just what they cost.
type expFigure struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchSnapshot is the BENCH_<date>.json document tracking the repo's
// perf trajectory in-tree.
type benchSnapshot struct {
	Date        string                  `json:"date"`
	GoVersion   string                  `json:"go_version"`
	GOMAXPROCS  int                     `json:"gomaxprocs"`
	Quick       bool                    `json:"quick"`
	Experiments []expPerf               `json:"experiments"`
	Figures     []expFigure             `json:"figures,omitempty"`
	HotPath     []experiments.PerfEntry `json:"hot_path"`
}

// writeAndValidateTrace persists an experiment's Chrome trace export and
// then proves the artefact is usable: the written bytes must parse back,
// the reconstructed spans must validate (submit-first, retire-last,
// non-negative and non-overlapping busy intervals), and the request count
// must reconcile with the experiment's own traced_requests metric — a
// trace file that silently dropped requests fails the run.
func writeAndValidateTrace(path string, r *experiments.Result) error {
	if err := os.WriteFile(path, r.TraceChrome, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read trace back: %w", err)
	}
	exp, err := trace.ParseChrome(data)
	if err != nil {
		return fmt.Errorf("trace file does not parse: %w", err)
	}
	sum, err := exp.Validate()
	if err != nil {
		return fmt.Errorf("trace file failed validation: %w", err)
	}
	want, ok := r.Metrics["traced_requests"]
	if !ok {
		return fmt.Errorf("experiment exported a trace but no traced_requests metric")
	}
	if float64(sum.Requests) != math.Round(want) {
		return fmt.Errorf("trace holds %d requests, experiment traced %.0f", sum.Requests, want)
	}
	if sum.Retired != sum.Requests {
		return fmt.Errorf("trace holds %d requests but only %d retire spans", sum.Requests, sum.Retired)
	}
	fmt.Printf("wrote %s (%d requests, %d spans; validated)\n", path, sum.Requests, sum.Spans)
	return nil
}

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		quick     = flag.Bool("quick", false, "reduced workload sizes")
		seed      = flag.Int64("seed", 0, "override experiment seed (0 = default)")
		list      = flag.Bool("list", false, "list available experiments")
		verbose   = flag.Bool("v", false, "print each experiment's wall-clock completion time")
		jsonOut   = flag.Bool("json", false, "write a BENCH_<date>.json perf snapshot (ns/op and allocs/op per figure/table plus hot-path micro-benchmarks)")
		jsonPath  = flag.String("json-out", "", "write the perf snapshot to this path instead of BENCH_<date>.json (implies -json; lets CI diff against a committed baseline from the same date without clobbering it)")
		traceFile = flag.String("trace", "", "enable request-lifecycle tracing and write the Chrome trace_event export to this file (load in chrome://tracing or Perfetto); the export is parsed back and validated before exit")
	)
	flag.Parse()
	if *jsonPath != "" {
		*jsonOut = true
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-12s %s\n", id, experiments.Title(id))
		}
		if *exp == "" {
			fmt.Println("\nusage: tltbench -exp <id>|all [-quick] [-seed N] [-json]")
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Trace: *traceFile != ""}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	var perf []expPerf
	var figures []expFigure
	for _, id := range ids {
		var m0 runtime.MemStats
		if *jsonOut {
			runtime.ReadMemStats(&m0)
		}
		start := time.Now()
		r, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tltbench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			perf = append(perf, expPerf{
				ID:     id,
				Ns:     elapsed.Nanoseconds(),
				Allocs: m1.Mallocs - m0.Mallocs,
				Bytes:  m1.TotalAlloc - m0.TotalAlloc,
			})
			if len(r.Metrics) > 0 {
				figures = append(figures, expFigure{ID: id, Metrics: r.Metrics})
			}
		}
		fmt.Println(r)
		if *traceFile != "" && r.TraceChrome != nil {
			if err := writeAndValidateTrace(*traceFile, r); err != nil {
				fmt.Fprintf(os.Stderr, "tltbench: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
		if *verbose {
			fmt.Printf("(%s completed in %v)\n\n", id, elapsed.Round(time.Millisecond))
		}
	}

	if *jsonOut {
		snap := benchSnapshot{
			Date:        time.Now().Format("2006-01-02"),
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Quick:       *quick,
			Experiments: perf,
			Figures:     figures,
			HotPath:     experiments.PerfSnapshot(*quick),
		}
		name := *jsonPath
		if name == "" {
			name = fmt.Sprintf("BENCH_%s.json", snap.Date)
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "tltbench: encode snapshot: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(name, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tltbench: write snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments, %d hot-path benchmarks)\n", name, len(snap.Experiments), len(snap.HotPath))
	}
}
