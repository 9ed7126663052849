// Command benchdiff compares interleaved runs of the same Go benchmarks
// on two trees and exits non-zero when the head tree regresses:
//
//	benchdiff [-tol 0.10] <base.txt> <head.txt> [pinned-regexp ...]
//
// Each file holds the standard output of `go test -bench -benchmem`, or
// of test binaries run with -test.bench and -test.benchmem, with runs
// appended. The k-th sample of a benchmark in the base file and the k-th
// sample of that name in the head file form pair k, so the two files
// must be written side by side, alternating which side runs first;
// cmd/benchdiff/ab.sh does that.
//
// The verdict is asymmetric on purpose. allocs/op is deterministic on
// the pinned paths, so any increase of its median fails. ns/op carries
// machine noise, so it fails only on a clear slowdown: head slower in at
// least nine of ten pairs and a median per-pair ratio beyond 1 + -tol.
// A benchmark in base that head lacks fails, because dropping a pinned
// benchmark is how regressions go unmeasured; one only in head is
// reported as new and not gated. Each pinned regexp must match some
// benchmark in head, so a typo in the pinned list cannot gate nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark result line. Other units on the line, such as
// B/op or a b.ReportMetric unit, are not gated and are dropped.
type sample struct {
	name   string
	ns     float64 // ns/op
	allocs float64 // allocs/op
}

// parseLine parses one line of benchmark output. ok is false for lines
// that are not results (headers, PASS, logs). A line that starts like a
// result but is malformed, or lacks a positive ns/op or an allocs/op, is
// an error: the text comes from another process and may be truncated.
func parseLine(line string) (s sample, ok bool, err error) {
	if !strings.HasPrefix(line, "Benchmark") {
		return sample{}, false, nil
	}
	f := strings.Fields(line)
	if len(f) < 2 {
		return sample{}, false, fmt.Errorf("benchmark line without results: %q", line)
	}
	if n, err := strconv.Atoi(f[1]); err != nil || n <= 0 {
		return sample{}, false, fmt.Errorf("benchmark line without a positive iteration count: %q", line)
	}
	if len(f)%2 != 0 {
		return sample{}, false, fmt.Errorf("benchmark line with a value but no unit: %q", line)
	}
	s = sample{name: f[0], ns: math.NaN(), allocs: math.NaN()}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return sample{}, false, fmt.Errorf("benchmark line with a bad value %q: %q", f[i], line)
		}
		switch f[i+1] {
		case "ns/op":
			s.ns = v
		case "allocs/op":
			s.allocs = v
		}
	}
	if !(s.ns > 0) || math.IsInf(s.ns, 1) {
		return sample{}, false, fmt.Errorf("benchmark line without a positive finite ns/op: %q", line)
	}
	if !(s.allocs >= 0) || math.IsInf(s.allocs, 1) {
		return sample{}, false, fmt.Errorf("benchmark line without a non-negative finite allocs/op (run with -benchmem): %q", line)
	}
	return s, true, nil
}

// parse returns the benchmark samples of data in file order.
func parse(data []byte) ([]sample, error) {
	var out []sample
	for i, line := range strings.Split(string(data), "\n") {
		s, ok, err := parseLine(strings.TrimSuffix(line, "\r"))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// series is one benchmark's samples in file order.
type series struct{ ns, allocs []float64 }

// group collects samples by name, with names in order of first
// appearance.
func group(samples []sample) ([]string, map[string]*series) {
	var names []string
	by := map[string]*series{}
	for _, s := range samples {
		sr := by[s.name]
		if sr == nil {
			sr = &series{}
			by[s.name] = sr
			names = append(names, s.name)
		}
		sr.ns = append(sr.ns, s.ns)
		sr.allocs = append(sr.allocs, s.allocs)
	}
	return names, by
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare writes one line per benchmark, then one per failure, to w and
// returns the number of failures.
func compare(w io.Writer, base, head []sample, pinned []*regexp.Regexp, tol float64) int {
	baseNames, baseBy := group(base)
	headNames, headBy := group(head)
	var fails []string
	// The name column fits the longest name, sub-benchmarks included.
	width := len("benchmark")
	for _, name := range append(baseNames, headNames...) {
		width = max(width, len(name))
	}
	fmt.Fprintf(w, "%-*s %7s %12s %12s %7s  %s\n",
		width, "benchmark", "slower", "base ns/op", "head ns/op", "ratio", "allocs/op")
	for _, name := range baseNames {
		b, h := baseBy[name], headBy[name]
		if h == nil {
			fails = append(fails, name+": missing from head")
			continue
		}
		n := len(b.ns)
		if len(h.ns) != n {
			fails = append(fails, fmt.Sprintf("%s: %d base samples and %d head samples do not pair", name, n, len(h.ns)))
			continue
		}
		ratios := make([]float64, n)
		slower := 0
		for k := range ratios {
			ratios[k] = h.ns[k] / b.ns[k]
			if ratios[k] > 1 {
				slower++
			}
		}
		ratio := median(ratios)
		ba, ha := median(b.allocs), median(h.allocs)
		fmt.Fprintf(w, "%-*s %3d/%-3d %12.1f %12.1f %7.3f  %g → %g\n",
			width, name, slower, n, median(b.ns), median(h.ns), ratio, ba, ha)
		if ha > ba {
			fails = append(fails, fmt.Sprintf("%s: allocs/op median %g → %g", name, ba, ha))
		}
		if 10*slower >= 9*n && ratio > 1+tol {
			fails = append(fails, fmt.Sprintf("%s: head slower in %d of %d pairs at a median ratio of %.3f, beyond %.3f",
				name, slower, n, ratio, 1+tol))
		}
	}
	for _, name := range headNames {
		if h := headBy[name]; baseBy[name] == nil {
			fmt.Fprintf(w, "%-*s new in head, not gated: %d samples, median %.1f ns/op, %g allocs/op\n",
				width, name, len(h.ns), median(h.ns), median(h.allocs))
		}
	}
	for _, re := range pinned {
		matched := false
		for _, name := range headNames {
			matched = matched || re.MatchString(name)
		}
		if !matched {
			fails = append(fails, fmt.Sprintf("pinned pattern %q matches no benchmark in head", re))
		}
	}
	for _, f := range fails {
		fmt.Fprintln(w, "FAIL:", f)
	}
	return len(fails)
}

func load(path string) ([]sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	samples, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return samples, nil
}

// run loads both files, compiles the pinned patterns and compares.
func run(w io.Writer, basePath, headPath string, patterns []string, tol float64) (failures int, err error) {
	base, err := load(basePath)
	if err != nil {
		return 0, err
	}
	head, err := load(headPath)
	if err != nil {
		return 0, err
	}
	pinned := make([]*regexp.Regexp, len(patterns))
	for i, p := range patterns {
		if pinned[i], err = regexp.Compile(p); err != nil {
			return 0, fmt.Errorf("pinned pattern: %w", err)
		}
	}
	return compare(w, base, head, pinned, tol), nil
}

func main() {
	tol := flag.Float64("tol", 0.10, "ns/op tolerance on the median per-pair ratio (0.10 = +10%); allocs/op increases always fail")
	flag.Parse()
	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.10] <base.txt> <head.txt> [pinned-regexp ...]")
		os.Exit(2)
	}
	failures, err := run(os.Stdout, flag.Arg(0), flag.Arg(1), flag.Args()[2:], *tol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("\nbenchdiff: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regressions")
}
