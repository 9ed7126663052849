package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// format prints s back as a benchmark result line.
func format(s sample) string {
	return fmt.Sprintf("%s\t1\t%s ns/op\t%s allocs/op", s.name,
		strconv.FormatFloat(s.ns, 'g', -1, 64), strconv.FormatFloat(s.allocs, 'g', -1, 64))
}

// runs renders one benchmark's samples, one run per line as a test
// binary prints them, with the header lines of a real run around them.
func runs(name string, ns []float64, allocs float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "goos: linux\npkg: fastrl/internal/sched\n%s \t    1000\t%12.1f ns/op\t   0 B/op\t%8g allocs/op\nPASS\n",
			name, v, allocs)
	}
	return b.String()
}

// spread is n ns/op values that wander by up to ±20% around 1000, the
// noise a base side shows between samples.
func spread(n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = 1000 * (1 + 0.2*math.Sin(float64(3*k+1)))
	}
	return v
}

// scaled multiplies the first slow values of base by slowRatio and the
// rest by fastRatio: slow of len(base) pairs are slower.
func scaled(base []float64, slow int, slowRatio, fastRatio float64) []float64 {
	v := make([]float64, len(base))
	for k, b := range base {
		if k < slow {
			v[k] = b * slowRatio
		} else {
			v[k] = b * fastRatio
		}
	}
	return v
}

func TestCompare(t *testing.T) {
	base := spread(20)
	cases := []struct {
		name     string
		base     string
		head     string
		pinned   []string
		failures int
		want     string // a substring of the report
	}{
		{name: "identical samples pass",
			base: runs("BenchmarkBatchStep", base, 0), head: runs("BenchmarkBatchStep", base, 0),
			pinned: []string{"^BenchmarkBatchStep$"}, want: "  0/20 "},
		{name: "18 of 20 slower at a median of 1.11 fails",
			base: runs("BenchmarkBatchStep", base, 0), head: runs("BenchmarkBatchStep", scaled(base, 18, 1.11, 0.95), 0),
			failures: 1, want: "slower in 18 of 20 pairs at a median ratio of 1.110"},
		{name: "17 of 20 slower passes however slow",
			base: runs("BenchmarkBatchStep", base, 0), head: runs("BenchmarkBatchStep", scaled(base, 17, 1.5, 0.95), 0),
			want: " 17/20 "},
		{name: "20 of 20 slower at 1.09 passes",
			base: runs("BenchmarkBatchStep", base, 0), head: runs("BenchmarkBatchStep", scaled(base, 20, 1.09, 1), 0),
			want: "1.090"},
		{name: "an allocs/op median increase fails",
			base: runs("BenchmarkLookup", base, 0), head: runs("BenchmarkLookup", base, 1),
			failures: 1, want: "allocs/op median 0 → 1"},
		{name: "a base benchmark missing from head fails",
			base: runs("BenchmarkLookup", base, 0) + runs("BenchmarkBatchStep", base, 0), head: runs("BenchmarkBatchStep", base, 0),
			failures: 1, want: "BenchmarkLookup: missing from head"},
		{name: "unequal sample counts fail",
			base: runs("BenchmarkLookup", base, 0), head: runs("BenchmarkLookup", base[:19], 0),
			failures: 1, want: "20 base samples and 19 head samples do not pair"},
		{name: "a head-only benchmark is reported and passes",
			base: runs("BenchmarkLookup", base, 0), head: runs("BenchmarkLookup", base, 0) + runs("BenchmarkStepBatch", base, 3),
			pinned: []string{"^BenchmarkStepBatch$"}, want: "new in head, not gated: 20 samples"},
		{name: "a pinned pattern matching nothing fails",
			base: runs("BenchmarkLookup", base, 0), head: runs("BenchmarkLookup", base, 0),
			pinned: []string{"^BenchmarkLookup$", "^BenchmarkLokup$"}, failures: 1, want: `pinned pattern "^BenchmarkLokup$"`},
	}
	for _, c := range cases {
		b, err := parse([]byte(c.base))
		if err != nil {
			t.Fatalf("%s: base: %v", c.name, err)
		}
		h, err := parse([]byte(c.head))
		if err != nil {
			t.Fatalf("%s: head: %v", c.name, err)
		}
		var pinned []*regexp.Regexp
		for _, p := range c.pinned {
			pinned = append(pinned, regexp.MustCompile(p))
		}
		var out strings.Builder
		if got := compare(&out, b, h, pinned, 0.10); got != c.failures {
			t.Errorf("%s: %d failures, want %d\n%s", c.name, got, c.failures, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: report lacks %q\n%s", c.name, c.want, out.String())
		}
	}
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want sample
		ok   bool
		err  string
	}{
		{line: "BenchmarkHistogramRecord \t18750668\t        15.50 ns/op\t       0 B/op\t       0 allocs/op",
			want: sample{"BenchmarkHistogramRecord", 15.5, 0}, ok: true},
		{line: "BenchmarkSoftmax/kernel-2         \t     100\t       664.1 ns/op\t       0 B/op\t       0 allocs/op",
			want: sample{"BenchmarkSoftmax/kernel-2", 664.1, 0}, ok: true},
		{line: "BenchmarkExample-8 \t 100\t 2000 ns/op\t 12.5 examples/op\t 64 B/op\t 3 allocs/op",
			want: sample{"BenchmarkExample-8", 2000, 3}, ok: true},
		{line: "pkg: fastrl/internal/sched"},
		{line: "PASS"},
		{line: "ok  \tfastrl/internal/model\t0.099s"},
		{line: "    bench_test.go:12: BenchmarkX logged this"},
		{line: "BenchmarkLookup \t 100\t 20 ns/op\t 0 B/op", err: "allocs/op"},
		{line: "BenchmarkLookup \t 100\t 0 ns/op\t 0 allocs/op", err: "positive finite ns/op"},
		{line: "BenchmarkLookup \t 100\t NaN ns/op\t 0 allocs/op", err: "positive finite ns/op"},
		{line: "BenchmarkLookup \t 100\t +Inf ns/op\t 0 allocs/op", err: "positive finite ns/op"},
		{line: "BenchmarkLookup \t 100\t 5 ns/op\t -1 allocs/op", err: "allocs/op"},
		{line: "BenchmarkLookup \t 100\t 5 ns/op\t 0", err: "no unit"},
		{line: "BenchmarkLookup \t 100\t fast ns/op\t 0 allocs/op", err: "bad value"},
		{line: "BenchmarkLookup \t--- FAIL: BenchmarkLookup", err: "iteration count"},
		{line: "BenchmarkLookup", err: "without results"},
	}
	for _, c := range cases {
		got, ok, err := parseLine(c.line)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%q: error %v, want one containing %q", c.line, err, c.err)
			}
			continue
		}
		if err != nil || ok != c.ok || got != c.want {
			t.Errorf("%q: got %+v, %v, %v; want %+v, %v", c.line, got, ok, err, c.want, c.ok)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.txt", runs("BenchmarkLookup", spread(3), 0))
	empty := write("empty.txt", "PASS\n")
	bad := write("bad.txt", "BenchmarkLookup \t 100\t 20 ns/op\n")
	for _, c := range []struct {
		base, head string
		patterns   []string
	}{
		{empty, good, nil},
		{good, bad, nil},
		{good, dir + "/absent.txt", nil},
		{good, good, []string{"("}},
	} {
		if _, err := run(io.Discard, c.base, c.head, c.patterns, 0.1); err == nil {
			t.Errorf("run(%s, %s, %q) accepted bad input", c.base, c.head, c.patterns)
		}
	}
	if n, err := run(io.Discard, good, good, []string{"Lookup"}, 0.1); err != nil || n != 0 {
		t.Errorf("run on identical files: %d failures, %v", n, err)
	}
}

// FuzzParse feeds arbitrary text to the parser: it must never panic, and
// every sample it accepts must print back as a line that parses to the
// same sample.
func FuzzParse(f *testing.F) {
	f.Add([]byte(runs("BenchmarkBatchStep", spread(2), 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := parse(data)
		if err != nil {
			return
		}
		for _, s := range samples {
			line := format(s)
			again, err := parse([]byte(line))
			if err != nil || len(again) != 1 || again[0] != s {
				t.Fatalf("%+v printed as %q parsed back as %+v, %v", s, line, again, err)
			}
		}
	})
}
