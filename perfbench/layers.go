package main

import (
	"fmt"
	"runtime"
)

// metricSpec names one reported metric; the lists below are the metric
// sets BENCHMARK.json declares, in report order (TestBenchmarkJSON keeps
// the two in step).
type metricSpec struct {
	name, unit, better string
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"host_tok_per_s", "tok/s", "higher"},
	{"cpu_ms_per_ktok", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"ttft_p50_ms", "ms", "lower"},
	{"ttft_p90_ms", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"sim_latency_p50_ms", "ms", "lower"},
	{"sim_latency_p90_ms", "ms", "lower"},
	{"sim_tok_per_s", "tok/s", "higher"},
}

var perLayerSpecs = []metricSpec{
	{"model.self_ms_per_ktok", "ms", "lower"},
	{"draft.cum_ms_per_ktok", "ms", "lower"},
	{"specdec.cum_ms_per_ktok", "ms", "lower"},
	{"specdec.accept_len", "tok", "higher"},
	{"sched.self_ms_per_ktok", "ms", "lower"},
	{"sched.tok_per_step", "tok", "higher"},
	{"sched.sd_step_frac", "ratio", "higher"},
	{"sched.prefill_virt_frac", "ratio", "lower"},
	{"sched.draft_virt_frac", "ratio", "lower"},
	{"sched.verify_virt_frac", "ratio", "higher"},
	{"spot.cum_ms_per_ktok", "ms", "lower"},
	{"spot.batches_per_step", "count", "higher"},
	{"spot.idle_used_frac", "ratio", "higher"},
	{"core.step_ms_p50", "ms", "lower"},
	{"core.rollout_virt_frac", "ratio", "lower"},
	{"core.idle_virt_frac", "ratio", "lower"},
	{"rl.accuracy", "ratio", "higher"},
	{"rl.kl", "nat", "lower"},
	{"serving.self_ms_per_ktok", "ms", "lower"},
	{"serving.events_per_req", "count", "lower"},
	{"cluster.submit_us_p50", "us", "lower"},
	{"cluster.load_max_mean", "ratio", "lower"},
	{"cluster.ttft_p99_ms", "ms", "lower"},
	{"cluster.latency_p99_ms", "ms", "lower"},
	{"prefixcache.hit_rate", "ratio", "higher"},
	{"prefixcache.saved_frac", "ratio", "higher"},
	{"prefixcache.evictions_per_kreq", "count", "lower"},
	{"prefixcache.resident_kb", "KB", "lower"},
	{"go.sched_lat_p99_us", "us", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_mb_per_ktok", "MB", "lower"},
	{"go.goroutines_end", "count", "lower"},
	{"go.live_heap_mb_end", "MB", "lower"},
	{"go.self_ms_per_ktok", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// profiled maps the CPU-profile metrics to their module and fold.
var profiled = []struct {
	name, module string
	cum          bool
}{
	{"model.self_ms_per_ktok", "model", false},
	{"draft.cum_ms_per_ktok", "draft", true},
	{"specdec.cum_ms_per_ktok", "specdec", true},
	{"sched.self_ms_per_ktok", "sched", false},
	{"spot.cum_ms_per_ktok", "spot", true},
	{"serving.self_ms_per_ktok", "serving", false},
	{"go.self_ms_per_ktok", "go", false},
}

// layerMetrics assembles the traced run's per-layer metrics: the
// workload's own counters and spans, the CPU profile of the traced
// windows folded by module, and Go runtime metrics over the timed phase.
// A layer the workload never reaches reads 0 with 0 samples.
func layerMetrics(res phaseResult, rt0 rtSnapshot, tr *tracer, spanPath string) ([]namedMetric, error) {
	got := map[string]namedMetric{}
	for _, m := range res.layers {
		got[m.name] = m
	}

	mods, err := tr.modules()
	if err != nil {
		return nil, err
	}
	tracedKtok := float64(tr.tok[1]) / 1000
	for _, p := range profiled {
		fold, n := mods.self, mods.selfN
		if p.cum {
			fold, n = mods.cum, mods.cumN
		}
		got[p.name] = namedMetric{p.name, ratio(fold[p.module]/1e6, tracedKtok), "ms", n[p.module]}
	}

	ktok := float64(res.tokens) / 1000
	goroutines := runtime.NumGoroutine()
	runtime.GC() // so the live-heap figure is current, outside the timed phase
	rt1 := readRuntime()
	lat := histDelta(rt0.hist(mSchedLat), rt1.hist(mSchedLat))
	p99, n := histQuantile(lat, 0.99)
	used := (rt1.value(mTotalCPU) - rt0.value(mTotalCPU)) - (rt1.value(mIdleCPU) - rt0.value(mIdleCPU))
	got["go.sched_lat_p99_us"] = namedMetric{"go.sched_lat_p99_us", p99 * 1e6, "us", int(n)}
	got["go.gc_cpu_frac"] = namedMetric{"go.gc_cpu_frac", ratio(rt1.value(mGCCPU)-rt0.value(mGCCPU), used), "ratio", 1}
	got["go.alloc_mb_per_ktok"] = namedMetric{"go.alloc_mb_per_ktok",
		ratio((rt1.value(mAllocBytes)-rt0.value(mAllocBytes))/(1<<20), ktok), "MB", int(res.tokens)}
	got["go.goroutines_end"] = namedMetric{"go.goroutines_end", float64(goroutines), "count", 1}
	got["go.live_heap_mb_end"] = namedMetric{"go.live_heap_mb_end", rt1.value(mLiveHeap) / (1 << 20), "MB", 1}
	got["trace.overhead_frac"] = namedMetric{"trace.overhead_frac", tr.overhead(), "ratio", 2}

	out := make([]namedMetric, 0, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		m, ok := got[s.name]
		if !ok {
			m = namedMetric{s.name, 0, s.unit, 0}
		}
		if m.unit != s.unit {
			return nil, fmt.Errorf("metric %s reported in %s, declared in %s", s.name, m.unit, s.unit)
		}
		out = append(out, m)
	}
	fmt.Printf("top self-CPU module: %s (%d profile samples in traced windows)\n", mods.topSelf(), mods.samples)
	for _, note := range res.notes {
		fmt.Println(note)
	}
	fmt.Println("span file:", spanPath)
	fmt.Printf("trace.overhead_frac: %.4f (traced %.0f tok/s over %.1fs, untraced %.0f tok/s over %.1fs)\n",
		tr.overhead(), ratio(float64(tr.tok[1]), tr.dur[1].Seconds()), tr.dur[1].Seconds(),
		ratio(float64(tr.tok[0]), tr.dur[0].Seconds()), tr.dur[0].Seconds())
	return out, nil
}
