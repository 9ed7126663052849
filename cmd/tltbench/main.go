// Command tltbench regenerates the paper's tables and figures from the
// simulator. Run `tltbench -list` for available experiments, then e.g.
//
//	tltbench -exp fig11
//	tltbench -exp all -quick
//	tltbench -exp batching -quick -trace batching_trace.json
//
// The figures report the simulated device's virtual time. The host's own
// cost is measured by the package benchmarks, which cmd/benchdiff/ab.sh
// compares between two trees on one machine.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"fastrl/internal/experiments"
	"fastrl/internal/trace"
)

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
		traceFile = flag.String("trace", "", "enable request-lifecycle tracing and write the Chrome trace_event export to this file (load in chrome://tracing or Perfetto); the export is parsed back and validated before exit")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-12s %s\n", id, experiments.Title(id))
		}
		if *exp == "" {
			fmt.Println("\nusage: tltbench -exp <id>|all [-quick] [-seed N] [-v] [-trace file]")
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Trace: *traceFile != ""}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		r, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tltbench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
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
}
