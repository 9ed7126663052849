package experiments

import (
	"fmt"
	"math"

	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/metrics"
)

func init() {
	register("fig1a", "Response-length distribution and RL step-time breakdown", runFig1a)
	register("fig11", "End-to-end training speed: 4 models x {Open-R1, VeRL, TLT-Base, TLT} on H100 and A100", runFig11)
	register("fig12", "Reward curves: VeRL vs TLT overlap (losslessness of training dynamics)", runFig12)
	register("tab3", "End-to-end TLT speedup across cluster scales (1-8 nodes)", runTab3)
}

// e2eModel describes one Fig. 11 row.
type e2eModel struct {
	name string
	arch gpu.Arch
	tp   int
	seed int64
}

func e2eModels(quick bool) []e2eModel {
	ms := []e2eModel{
		{"Qwen-7B", gpu.Qwen7B, 2, 11},
		{"DeepSeek-7B", gpu.DeepSeek7B, 2, 12},
		{"Qwen-32B", gpu.Qwen32B, 4, 13},
		{"Llama-70B", gpu.Llama70B, 8, 14},
	}
	if quick {
		return ms[:2]
	}
	return ms
}

// meanThroughput runs warm-up + measured steps of a system and returns the
// mean token throughput, following the paper's methodology (average over
// three steps after a warm-up step).
func meanThroughput(cfg core.Config, warm, steps int) (float64, float64, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	if cfg.Kind == core.TLT {
		sys.WarmUpDrafter(40, 3)
	}
	for i := 0; i < warm; i++ {
		if _, err := sys.Step(); err != nil {
			return 0, 0, err
		}
	}
	var tput, accept float64
	for i := 0; i < steps; i++ {
		st, err := sys.Step()
		if err != nil {
			return 0, 0, err
		}
		tput += st.Throughput
		accept += st.AcceptLen
	}
	return tput / float64(steps), accept / float64(steps), nil
}

func e2eConfig(m e2eModel, kind core.Kind, spec gpu.Spec, nodes int, seed int64, quick bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Kind = kind
	cfg.Arch = m.arch
	cfg.Cluster = core.DefaultCluster(spec, nodes, m.tp)
	cfg.Seed = seed
	cfg.ModelBuckets = 1 << 12
	cfg.RL.PromptsPerStep = 16
	cfg.RL.GroupSize = 8
	cfg.MaxNew = 384
	if quick {
		cfg.RL.PromptsPerStep = 8
		cfg.RL.GroupSize = 4
		cfg.MaxNew = 192
	}
	return cfg
}

func runFig11(opts Options) (*Result, error) {
	gpus := []gpu.Spec{gpu.H100, gpu.A100}
	systems := []core.Kind{core.OpenR1, core.VeRL, core.TLTBase, core.TLT}
	steps, warm := 3, 1
	if opts.Quick {
		gpus = gpus[:1]
		steps = 2
	}
	res := &Result{}
	for _, spec := range gpus {
		tbl := &metrics.Table{Header: []string{"Model (" + spec.Name + ")", "Open-R1", "VeRL", "TLT-Base", "TLT"}}
		speedups := map[core.Kind][]float64{}
		for _, m := range e2eModels(opts.Quick) {
			raw := map[core.Kind]float64{}
			for _, kind := range systems {
				cfg := e2eConfig(m, kind, spec, 1, seedOr(opts, 111)^m.seed, opts.Quick)
				tput, _, err := meanThroughput(cfg, warm, steps)
				if err != nil {
					return nil, err
				}
				raw[kind] = tput
			}
			base := raw[core.VeRL]
			row := []string{m.name}
			for _, kind := range systems {
				norm := raw[kind] / base
				speedups[kind] = append(speedups[kind], norm)
				row = append(row, metrics.F(norm, 2))
			}
			tbl.AddRow(row...)
		}
		gm := []string{"Geomean"}
		for _, kind := range systems {
			gm = append(gm, metrics.F(metrics.GeoMean(speedups[kind]), 2))
		}
		tbl.AddRow(gm...)
		res.Tables = append(res.Tables, tbl)
	}
	res.Notes = append(res.Notes,
		"throughput normalised to VeRL = 1.00 per model (paper Fig. 11)",
		"expected ordering: TLT > TLT-Base > VeRL >> Open-R1")
	return res, nil
}

// linearHistogram is a fixed-bin histogram over [minV, maxV) for fig. 1a's
// response-length PDF. Samples outside the range count toward the total but
// land in no bin.
type linearHistogram struct {
	minV, maxV float64
	counts     []int
	n          int
}

func newLinearHistogram(minV, maxV float64, nbins int) *linearHistogram {
	return &linearHistogram{minV: minV, maxV: maxV, counts: make([]int, nbins)}
}

func (h *linearHistogram) observe(x float64) {
	h.n++
	if x < h.minV || x >= h.maxV {
		return
	}
	idx := int((x - h.minV) / (h.maxV - h.minV) * float64(len(h.counts)))
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
}

// pdf returns per-bin probability mass (fractions of all observations).
func (h *linearHistogram) pdf() []float64 {
	out := make([]float64, len(h.counts))
	if h.n == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.n)
	}
	return out
}

// binCenter returns the centre value of bin i.
func (h *linearHistogram) binCenter(i int) float64 {
	w := (h.maxV - h.minV) / float64(len(h.counts))
	return h.minV + (float64(i)+0.5)*w
}

func runFig1a(opts Options) (*Result, error) {
	cfg := e2eConfig(e2eModels(true)[0], core.VeRL, gpu.H100, 1, seedOr(opts, 7), opts.Quick)
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	steps := 3
	if opts.Quick {
		steps = 1
	}
	hist := newLinearHistogram(0, float64(cfg.MaxNew)+1, 16)
	var rollout, other float64
	var maxLen int
	for i := 0; i < steps; i++ {
		st, err := sys.Step()
		if err != nil {
			return nil, err
		}
		rollout += secsOf(st.Rollout)
		other += secsOf(st.Inference + st.Training + st.Other)
		if st.Summary.MaxLen > maxLen {
			maxLen = st.Summary.MaxLen
		}
		for _, l := range st.RespLens {
			hist.observe(float64(l))
		}
	}
	var lenSeries metrics.Series
	lenSeries.Name = "response-length-pdf"
	for i, p := range hist.pdf() {
		lenSeries.Add(hist.binCenter(i), p)
	}
	tbl := &metrics.Table{Header: []string{"stage", "normalized time"}}
	total := rollout + other
	tbl.AddRow("rollout", metrics.F(rollout/total, 3))
	tbl.AddRow("other (inference+training+transitions)", metrics.F(other/total, 3))
	return &Result{
		Series: []metrics.Series{lenSeries},
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			fmt.Sprintf("max observed response length %d of cap %d", maxLen, cfg.MaxNew),
			"rollout dominates the RL step (~85% in the paper's Fig. 1(a))",
		},
	}, nil
}

func runFig12(opts Options) (*Result, error) {
	steps := 60
	if opts.Quick {
		steps = 15
	}
	run := func(kind core.Kind) (metrics.Series, error) {
		cfg := e2eConfig(e2eModels(true)[0], kind, gpu.H100, 1, seedOr(opts, 12), opts.Quick)
		cfg.DisableLengthPrior = true
		cfg.RL.PromptsPerStep = 12
		cfg.RL.GroupSize = 6
		cfg.MaxNew = 96
		sys, err := core.New(cfg)
		if err != nil {
			return metrics.Series{}, err
		}
		if kind == core.TLT {
			sys.WarmUpDrafter(30, 2)
		}
		var s metrics.Series
		s.Name = kind.String()
		ema := 0.0
		for i := 0; i < steps; i++ {
			st, err := sys.Step()
			if err != nil {
				return s, err
			}
			if i == 0 {
				ema = st.Summary.MeanReward
			} else {
				ema = 0.7*ema + 0.3*st.Summary.MeanReward
			}
			s.Add(float64(i+1), ema)
		}
		return s, nil
	}
	verl, err := run(core.VeRL)
	if err != nil {
		return nil, err
	}
	tlt, err := run(core.TLT)
	if err != nil {
		return nil, err
	}
	// Overlap metric: mean absolute gap relative to the mean reward level.
	var gap, level float64
	for i := range verl.Y {
		gap += math.Abs(verl.Y[i] - tlt.Y[i])
		level += (verl.Y[i] + tlt.Y[i]) / 2
	}
	rel := gap / math.Max(level, 1e-9)
	return &Result{
		Series: []metrics.Series{verl, tlt},
		Notes: []string{
			fmt.Sprintf("mean relative reward gap %.3f — curves statistically overlap (paper Fig. 12)", rel),
			"losslessness is additionally verified exactly: greedy SD == greedy decode (specdec tests)",
		},
	}, nil
}

func runTab3(opts Options) (*Result, error) {
	nodeCounts := []int{1, 2, 4, 8}
	if opts.Quick {
		nodeCounts = []int{1, 2}
	}
	models := []e2eModel{
		{"Qwen2.5-7B", gpu.Qwen7B, 2, 31},
		{"Qwen2.5-32B", gpu.Qwen32B, 4, 32},
	}
	steps := 2
	tbl := &metrics.Table{Header: append([]string{"Model \\ nodes"}, intHeaders(nodeCounts)...)}
	for _, m := range models {
		row := []string{m.name}
		for _, nodes := range nodeCounts {
			// OOM gate evaluated at the paper's 32K generation cap.
			gate := e2eConfig(m, core.VeRL, gpu.H100, nodes, seedOr(opts, 3)^m.seed, opts.Quick)
			gate.RL.PromptsPerStep = 64
			gate.RL.GroupSize = 8
			gate.MaxNew = 32768
			gateSys, err := core.New(gate)
			if err != nil {
				return nil, err
			}
			if err := gateSys.CheckMemory(); err != nil {
				row = append(row, "OOM")
				continue
			}
			// Timing at simulator scale.
			scale := func(kind core.Kind) (float64, error) {
				cfg := e2eConfig(m, kind, gpu.H100, nodes, seedOr(opts, 3)^m.seed, opts.Quick)
				cfg.RL.PromptsPerStep = 8 * nodes
				t, _, err := meanThroughput(cfg, 0, steps)
				return t, err
			}
			tlt, err := scale(core.TLT)
			if err != nil {
				return nil, err
			}
			verl, err := scale(core.VeRL)
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.F(tlt/verl, 2)+"x")
		}
		tbl.AddRow(row...)
	}
	return &Result{
		Tables: []*metrics.Table{tbl},
		Notes: []string{
			"cells are TLT speedup over VeRL at each scale; OOM determined at the paper's 32K-token cap",
			"speedup grows with model and cluster size (paper Table 3)",
		},
	}, nil
}

func secsOf(d interface{ Seconds() float64 }) float64 { return d.Seconds() }
