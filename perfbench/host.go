package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine and settings a result was measured
// under. Results whose fingerprints differ are not comparable (see
// compare.go).
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// comparableWith reports the first field that differs from o, or "" when
// the two fingerprints may be compared. The seed is deliberately not part
// of the fingerprint: runs over different seeds are what a comparison
// aggregates.
func (f fingerprint) comparableWith(o fingerprint) string {
	switch {
	case f.CPU != o.CPU:
		return fmt.Sprintf("cpu %q vs %q", f.CPU, o.CPU)
	case f.NumCPU != o.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", f.NumCPU, o.NumCPU)
	case f.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", f.GOMAXPROCS, o.GOMAXPROCS)
	case f.GoVersion != o.GoVersion:
		return fmt.Sprintf("go %s vs %s", f.GoVersion, o.GoVersion)
	case f.Workload != o.Workload:
		return fmt.Sprintf("workload %s vs %s", f.Workload, o.Workload)
	case f.Seconds != o.Seconds:
		return fmt.Sprintf("seconds %d vs %d", f.Seconds, o.Seconds)
	case f.Trace != o.Trace:
		return fmt.Sprintf("trace %v vs %v", f.Trace, o.Trace)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Go runtime metrics the traced run reports.
const (
	mSchedLat   = "/sched/latencies:seconds"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mLiveHeap   = "/gc/heap/live:bytes"
)

// rtSnapshot is one read of the runtime/metrics the traced run uses.
type rtSnapshot struct {
	samples []metrics.Sample
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{
		{Name: mSchedLat}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU},
		{Name: mAllocBytes}, {Name: mLiveHeap},
	}
	metrics.Read(s)
	return rtSnapshot{samples: s}
}

func (r rtSnapshot) value(name string) float64 {
	for _, s := range r.samples {
		if s.Name != name {
			continue
		}
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
	}
	return 0
}

func (r rtSnapshot) hist(name string) *metrics.Float64Histogram {
	for _, s := range r.samples {
		if s.Name == name && s.Value.Kind() == metrics.KindFloat64Histogram {
			return s.Value.Float64Histogram()
		}
	}
	return nil
}

// histDelta returns end minus start bucket-wise: the observations recorded
// between the two reads. Both must come from the same metric (identical
// bucket boundaries, which runtime/metrics guarantees within a process).
func histDelta(start, end *metrics.Float64Histogram) *metrics.Float64Histogram {
	if end == nil {
		return nil
	}
	d := &metrics.Float64Histogram{Buckets: end.Buckets, Counts: append([]uint64(nil), end.Counts...)}
	if start != nil && len(start.Counts) == len(end.Counts) {
		for i := range d.Counts {
			d.Counts[i] -= start.Counts[i]
		}
	}
	return d
}

// histQuantile returns the upper boundary of the bucket holding the
// q-quantile (0 < q ≤ 1) of a runtime/metrics histogram, and the number of
// observations in it. An infinite upper boundary falls back to the
// bucket's lower boundary. An empty histogram returns (0, 0).
func histQuantile(h *metrics.Float64Histogram, q float64) (value float64, total uint64) {
	if h == nil {
		return 0, 0
	}
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i]
			}
			return hi, total
		}
	}
	return h.Buckets[len(h.Buckets)-1], total
}
