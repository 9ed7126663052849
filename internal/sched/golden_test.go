package sched

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fastrl/internal/gpu"
	"fastrl/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate golden lifecycle token streams")

// goldenRun is one pinned scenario's output: the full token stream of
// every request plus the coarse stats that must survive refactors.
type goldenRun struct {
	Name           string  `json:"name"`
	Tokens         [][]int `json:"tokens"`
	ResponseTokens int     `json:"response_tokens"`
	SDSteps        int     `json:"sd_steps"`
	VanillaSteps   int     `json:"vanilla_steps"`
	ElapsedNs      int64   `json:"elapsed_ns"`
}

// goldenScenarios drives the engine through the lifecycle variants the
// scheduler refactor must preserve: pure vanilla, always-SD, elastic
// activation with a mid-run switch, and tool waits + KV budget pressure.
// Everything is seed-deterministic, so the recorded streams pin the
// pre-refactor request lifecycle bit-for-bit.
func goldenScenarios(t *testing.T, env *testEnv) []goldenRun {
	t.Helper()
	type scenario struct {
		name      string
		threshold int
		useEagle  bool
		nReqs     int
		maxNew    int
		reqSeed   int64
		runSeed   int64
		mutate    func(reqs []*Request, cfg *Config)
	}
	scenarios := []scenario{
		{name: "vanilla", threshold: -1, nReqs: 6, maxNew: 60, reqSeed: 101, runSeed: 201},
		{name: "sd-always", threshold: 0, useEagle: true, nReqs: 5, maxNew: 70, reqSeed: 102, runSeed: 202},
		{name: "elastic-switch", threshold: 4, useEagle: true, nReqs: 10, maxNew: 80, reqSeed: 103, runSeed: 203},
		{name: "tools-kv", threshold: -1, nReqs: 5, maxNew: 70, reqSeed: 104, runSeed: 204,
			mutate: func(reqs []*Request, cfg *Config) {
				// Tight enough that the resident batch shrinks mid-run.
				cfg.KVBudgetBytes = 3 * env.target.Arch().KVBytesPerToken() * 100
				for i, r := range reqs {
					r.Prior = workload.LengthPrior{TargetLen: 60, Sharpness: 20}
					r.Tool = ToolProfile{Every: 18 + i, Latency: 25 * time.Millisecond, MaxCalls: 2}
				}
			}},
		{name: "truncated-tail", threshold: 0, useEagle: true, nReqs: 6, maxNew: 90, reqSeed: 105, runSeed: 205,
			mutate: func(reqs []*Request, cfg *Config) {
				cfg.StopAtRemaining = 2
			}},
	}

	var out []goldenRun
	for _, sc := range scenarios {
		cfg := DefaultConfig(gpu.NewDevice(gpu.H100, 1))
		cfg.SDThreshold = sc.threshold
		reqs := env.requests(t, sc.nReqs, sc.maxNew, sc.reqSeed)
		if sc.mutate != nil {
			sc.mutate(reqs, &cfg)
		}
		var eng *Batch
		var err error
		if sc.useEagle {
			eng, err = New(cfg, env.target, env.eagle.Clone())
		} else {
			eng, err = New(cfg, env.target, nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		stats := eng.Run(reqs, rand.New(rand.NewSource(sc.runSeed)), 0)
		g := goldenRun{
			Name:           sc.name,
			ResponseTokens: stats.ResponseTokens,
			SDSteps:        stats.SDSteps,
			VanillaSteps:   stats.VanillaSteps,
			ElapsedNs:      stats.Elapsed.Nanoseconds(),
		}
		for _, r := range reqs {
			g.Tokens = append(g.Tokens, append([]int(nil), r.Tokens...))
		}
		out = append(out, g)
	}
	return out
}

// TestLifecycleGolden pins the request lifecycle bit-identical to the
// pre-refactor rollout engine: token streams (and the virtual-time and
// mode accounting) recorded before the iteration-level scheduler refactor
// must be reproduced exactly by the rebased engine under the same seeds.
// Regenerate with `go test ./internal/sched -run TestLifecycleGolden
// -update` only when a change is *meant* to alter sampling behaviour.
func TestLifecycleGolden(t *testing.T) {
	env := newEnv(t)
	got := goldenScenarios(t, env)
	path := filepath.Join("testdata", "golden_lifecycle.json")

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden lifecycle streams rewritten: %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden data (run with -update to generate): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scenario count %d != golden %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("scenario %d: name %q != golden %q", i, g.Name, w.Name)
		}
		if g.ResponseTokens != w.ResponseTokens || g.SDSteps != w.SDSteps ||
			g.VanillaSteps != w.VanillaSteps || g.ElapsedNs != w.ElapsedNs {
			t.Errorf("%s: stats diverged from pre-refactor engine: got %+v want %+v",
				g.Name, g, w)
			continue
		}
		if len(g.Tokens) != len(w.Tokens) {
			t.Fatalf("%s: request count %d != golden %d", g.Name, len(g.Tokens), len(w.Tokens))
		}
		for r := range g.Tokens {
			if len(g.Tokens[r]) != len(w.Tokens[r]) {
				t.Fatalf("%s: request %d stream length %d != golden %d",
					g.Name, r, len(g.Tokens[r]), len(w.Tokens[r]))
			}
			for j := range g.Tokens[r] {
				if g.Tokens[r][j] != w.Tokens[r][j] {
					t.Fatalf("%s: request %d token %d = %d, golden %d",
						g.Name, r, j, g.Tokens[r][j], w.Tokens[r][j])
				}
			}
		}
	}
}
