// Command perfbench is the repository's end-to-end benchmark. It drives RL
// training through core.System.Step and serving through cluster.Stream on
// inputs it generates from --seed, checks every output, and prints one
// JSON result as the last line of standard output: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. README.md defines
// the workloads and every metric.
//
//	perfbench --workload rl-longtail --seed 1 --seconds 30 --trace 0
//	perfbench compare <results-a> <results-b>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// processStart anchors setup_s and span times at (nearly) process start:
// package initialisation runs before main.
var processStart = time.Now()

// setups is how many times a run builds and warms the system under test;
// setup_s is their median, and the last one is measured.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is one reported figure with the number of samples behind it.
type namedMetric struct {
	name  string
	value float64
	unit  string
	n     int
}

// phaseResult is what one warm-up or timed phase measured.
type phaseResult struct {
	attempted, ok int
	tokens        int64 // tokens credited to the phase (see README)
	wall, cpu     time.Duration
	ttftMs, latMs []float64 // host time per operation
	simLatMs      []float64 // simulated time per operation
	simTok        float64   // tokens over simulated seconds (sim_tok_per_s)
	simSec        float64
	layers        []namedMetric // workload-specific per-layer metrics
	notes         []string      // workload-specific lines for the traced report
}

func (r phaseResult) failed() int { return r.attempted - r.ok }

// phaseCtl paces a timed phase: it lasts --seconds of wall time and at
// least pinOps operations, and samples the resident-set high-water mark
// when operation pinOps completes, so peak_rss_mb is charged for a fixed
// amount of work however fast the build is.
type phaseCtl struct {
	deadline time.Time
	pinOps   int64
	tr       *tracer // nil in untraced runs

	ops    atomic.Int64
	tokens atomic.Int64
	// rssMB is written once, by the goroutine completing the pinned
	// operation, and read after the phase has joined every client.
	rssMB float64
}

func (p *phaseCtl) done() bool {
	return p.ops.Load() >= p.pinOps && !time.Now().Before(p.deadline)
}

// credit counts tokens as they are delivered.
func (p *phaseCtl) credit(tokens int) { p.tokens.Add(int64(tokens)) }

// opDone counts one completed operation.
func (p *phaseCtl) opDone() {
	if p.ops.Add(1) == p.pinOps {
		p.rssMB = peakRSSMB()
	}
}

// instance is one built and warmed system under test.
type instance interface {
	// timed runs the measured phase.
	timed(p *phaseCtl) (phaseResult, error)
	// check verifies run-level invariants after the timed phase; a
	// violation aborts the run.
	check() error
	close()
}

// benchWorkload is one workload of BENCHMARK.json (whose "why" records
// why it was chosen). build makes an instance from the seed: construction,
// drafter warm-up and the warm-up phase, all of which setup_s covers. A
// non-nil tracer marks the traced run; only it gets the workload's own
// instrumentation, such as a phase profile.
type benchWorkload struct {
	name string
	// pinOps returns the work-pinned operation count for a run length.
	pinOps func(seconds int) int64
	build  func(seed int64, spans *tracer) (instance, phaseResult, error)
}

var workloads = []benchWorkload{rlLongtail, serveLongtail, serveTemplated}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: rl-longtail, serve-longtail, serve-templated, or all")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 30, "length of the timed phase in wall seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for result records and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "all" {
		return runAll(args)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	traced := *traceFlag == 1
	// Never below nproc: at GOMAXPROCS 1 the specdec pipeline and the
	// rl-longtail goroutine leak both disappear, hiding real behaviour.
	if runtime.GOMAXPROCS(0) < runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fp := fingerprint{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: wl.name, Seconds: *seconds, Trace: traced,
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var inst instance
	var warm counts // over every set-up's warm-up phase
	var setupS []float64
	// The traced run reports no setup time, so it sets up once.
	nSetups := setups
	if traced {
		nSetups = 1
	}
	for i := 0; i < nSetups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		var w phaseResult
		inst, w, err = wl.build(*seed, tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		warm.Sent += w.attempted
		warm.OK += w.ok
		warm.Failed += w.failed()
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.record("setup", int64(i), -1, t0, time.Now())
	}
	defer inst.close()

	ctl := &phaseCtl{deadline: time.Now().Add(time.Duration(*seconds) * time.Second), pinOps: wl.pinOps(*seconds), tr: tr}
	if traced {
		// The /cpu/classes estimates advance only at GC: collect now so
		// the GC-share delta covers the timed phase alone.
		runtime.GC()
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	res, err := inst.timed(ctl)
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if err := inst.check(); err != nil {
		return fmt.Errorf("invariant violated: %w", err)
	}

	fmt.Printf("fingerprint: cpu=%q nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%v\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Workload, *seed, fp.Seconds, traced)
	fmt.Printf("setups: %.3f s\n", setupS)
	fmt.Printf("warm-up: sent=%d ok=%d failed=%d (over %d set-ups)\n", warm.Sent, warm.OK, warm.Failed, len(setupS))
	fmt.Printf("timed:   sent=%d ok=%d failed=%d tokens=%d wall=%.3fs\n",
		res.attempted, res.ok, res.failed(), res.tokens, res.wall.Seconds())

	var out []namedMetric
	if traced {
		spanPath, err := tr.writeSpans(filepath.Join(*outDir, "trace"), fmt.Sprintf("%s-seed%d.spans.json", wl.name, *seed))
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		if out, err = layerMetrics(res, rt0, tr, spanPath); err != nil {
			return err
		}
	} else {
		out = endToEnd(res, setupS, ctl.rssMB)
	}
	printTable(out)

	correct := warm.Failed == 0 && res.failed() == 0 && res.attempted > 0
	rec := record{
		Fingerprint: fp, Seed: *seed, Correct: correct,
		WarmUp:  warm,
		Timed:   counts{res.attempted, res.ok, res.failed()},
		Metrics: map[string]metric{},
	}
	for _, m := range out {
		rec.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	path, err := rec.write(*outDir)
	if err != nil {
		return fmt.Errorf("writing result record: %w", err)
	}
	fmt.Println("result record:", path)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed(), rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload, each in its own process so peak RSS and
// goroutine counts stay per workload, and prints their metrics side by
// side.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type result struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	results := make([]result, len(workloads))
	for i, w := range workloads {
		child := append(append([]string(nil), args...), "--workload", w.name)
		cmd := exec.Command(self, child...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results[i]); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
	}
	fmt.Printf("\n%-28s %-8s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Println()
	for _, name := range specOrder(results[0].Metrics) {
		fmt.Printf("%-28s %-8s", name, results[0].Metrics[name].Unit)
		for _, r := range results {
			fmt.Printf(" %16.6g", r.Metrics[name].Value)
		}
		fmt.Println()
	}
	for i, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: outputs failed their checks", workloads[i].name)
		}
	}
	return nil
}

// endToEnd derives the untraced run's metrics, in endToEndSpecs order.
func endToEnd(res phaseResult, setupS []float64, rssMB float64) []namedMetric {
	ktok := float64(res.tokens) / 1000
	_, setup, _ := quartiles(setupS)
	pct := func(xs []float64, p float64) namedMetric {
		v, _ := percentile(xs, p)
		return namedMetric{value: v, n: len(xs)}
	}
	got := map[string]namedMetric{
		"setup_s":            {value: setup, n: len(setupS)},
		"host_tok_per_s":     {value: ratio(float64(res.tokens), res.wall.Seconds()), n: int(res.tokens)},
		"cpu_ms_per_ktok":    {value: ratio(float64(res.cpu.Nanoseconds())/1e6, ktok), n: int(res.tokens)},
		"peak_rss_mb":        {value: rssMB, n: 1},
		"ok_frac":            {value: ratio(float64(res.ok), float64(res.attempted)), n: res.attempted},
		"ttft_p50_ms":        pct(res.ttftMs, 50),
		"ttft_p90_ms":        pct(res.ttftMs, 90),
		"latency_p50_ms":     pct(res.latMs, 50),
		"latency_p90_ms":     pct(res.latMs, 90),
		"sim_latency_p50_ms": pct(res.simLatMs, 50),
		"sim_latency_p90_ms": pct(res.simLatMs, 90),
		"sim_tok_per_s":      {value: ratio(res.simTok, res.simSec), n: len(res.simLatMs)},
	}
	out := make([]namedMetric, 0, len(endToEndSpecs))
	for _, s := range endToEndSpecs {
		m := got[s.name]
		m.name, m.unit = s.name, s.unit
		out = append(out, m)
	}
	return out
}

func printTable(ms []namedMetric) {
	fmt.Printf("%-28s %16s  %-8s %10s\n", "metric", "value", "unit", "samples")
	for _, m := range ms {
		fmt.Printf("%-28s %16.6g  %-8s %10d\n", m.name, m.value, m.unit, m.n)
	}
}

// counts is one phase's operation tally.
type counts struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

// record is the result of one run as saved for compare.
type record struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Seed        int64             `json:"seed"`
	Correct     bool              `json:"correct"`
	WarmUp      counts            `json:"warm_up"`
	Timed       counts            `json:"timed"`
	Metrics     map[string]metric `json:"metrics"`
}

func (r record) write(dir string) (string, error) {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t := 0
	if r.Fingerprint.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Fingerprint.Workload, r.Seed, t))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// specOrder returns the metric names in m in the order BENCHMARK.json
// declares them.
func specOrder(m map[string]metric) []string {
	var names []string
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if _, ok := m[s.name]; ok {
			names = append(names, s.name)
		}
	}
	return names
}

// sortedKeys returns m's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
