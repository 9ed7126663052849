package model

import (
	"math"
	"math/rand"
	"testing"

	"fastrl/internal/gpu"
)

func newAllocLM(t testing.TB) *LM {
	t.Helper()
	cfg := DefaultConfig(64, gpu.Qwen7B)
	cfg.Buckets = 1 << 10
	return New(cfg, nil)
}

// TestProbsScratchZeroAllocs: scoring with caller-owned scratch must not
// allocate — this is the contract the speculation engine's zero-alloc
// round is built on, with and without a logit bias.
func TestProbsScratchZeroAllocs(t *testing.T) {
	m := newAllocLM(t)
	sc := NewScratch()
	dst := make([]float32, m.Config().Vocab)
	ctx := Context{Tokens: []int{1, 2, 3, 4, 5}, PromptLen: 3}
	bias := map[int]float32{2: -1.5, 7: 2}
	m.ProbsScratch(ctx, bias, 0.9, dst, sc)
	allocs := testing.AllocsPerRun(200, func() {
		m.ProbsScratch(ctx, bias, 0.9, dst, sc)
	})
	if allocs != 0 {
		t.Errorf("ProbsScratch allocates %.1f objects/call, want 0", allocs)
	}
}

// TestProbsBatchZeroAllocs: a batched pass with scratch and caller-owned
// rows must not allocate.
func TestProbsBatchZeroAllocs(t *testing.T) {
	m := newAllocLM(t)
	sc := NewScratch()
	vocab := m.Config().Vocab
	const batch = 16
	ctxs := make([]Context, batch)
	rows := make([][]float32, batch)
	arena := make([]float32, batch*vocab)
	tokens := []int{1, 2, 3, 4, 5, 6, 7}
	for i := range ctxs {
		ctxs[i] = Context{Tokens: tokens[:3+i%5], PromptLen: 2}
		rows[i] = arena[i*vocab : (i+1)*vocab]
	}
	m.ProbsBatch(ctxs, nil, 0.9, rows, sc)
	allocs := testing.AllocsPerRun(200, func() {
		m.ProbsBatch(ctxs, nil, 0.9, rows, sc)
	})
	if allocs != 0 {
		t.Errorf("ProbsBatch allocates %.1f objects/call, want 0", allocs)
	}
}

// TestProbsBatchMatchesProbs: one batched pass must emit bit-identical
// rows to sequential Probs calls — the invariant that lets tree
// verification score positions one at a time or all at once without
// touching losslessness.
func TestProbsBatchMatchesProbs(t *testing.T) {
	m := newAllocLM(t)
	rng := rand.New(rand.NewSource(7))
	vocab := m.Config().Vocab
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		ctxs := make([]Context, n)
		rows := make([][]float32, n)
		for i := range ctxs {
			toks := make([]int, 2+rng.Intn(10))
			for j := range toks {
				toks[j] = rng.Intn(vocab)
			}
			ctxs[i] = Context{Tokens: toks, PromptLen: 1 + rng.Intn(len(toks))}
			rows[i] = make([]float32, vocab)
		}
		var bias map[int]float32
		if trial%2 == 0 {
			bias = map[int]float32{rng.Intn(vocab): float32(rng.NormFloat64())}
		}
		temp := 0.5 + rng.Float64()
		m.ProbsBatch(ctxs, bias, temp, rows, nil)
		want := make([]float32, vocab)
		for i, ctx := range ctxs {
			m.Probs(ctx, bias, temp, want)
			for v := range want {
				if rows[i][v] != want[v] {
					t.Fatalf("trial %d row %d token %d: batch %g != sequential %g",
						trial, i, v, rows[i][v], want[v])
				}
			}
		}
	}
}

// TestTopKIntoMatchesReference pins TopKInto's ordering (values
// descending, ties by ascending index) against the straightforward
// k-pass reference the codebase previously used.
func TestTopKIntoMatchesReference(t *testing.T) {
	refTopK := func(probs []float32, k int) []int {
		if k > len(probs) {
			k = len(probs)
		}
		idx := make([]int, 0, k)
		used := make([]bool, len(probs))
		for n := 0; n < k; n++ {
			best := -1
			for i, p := range probs {
				if used[i] {
					continue
				}
				if best < 0 || p > probs[best] {
					best = i
				}
			}
			if best < 0 {
				break
			}
			used[best] = true
			idx = append(idx, best)
		}
		return idx
	}
	rng := rand.New(rand.NewSource(9))
	buf := make([]int, 0, 16)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		probs := make([]float32, n)
		for i := range probs {
			// Coarse quantisation forces plenty of exact ties.
			probs[i] = float32(rng.Intn(6)) / 5
		}
		k := 1 + rng.Intn(12)
		want := refTopK(probs, k)
		got := TopKInto(probs, k, buf)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v (probs %v k=%d)", trial, got, want, probs, k)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v (probs %v k=%d)", trial, got, want, probs, k)
			}
		}
	}
}

// TestExpfAccuracy bounds the fast softmax exponential against the
// library exp over the range softmax feeds it (max-shifted, so x <= 0,
// plus a margin above zero for safety).
func TestExpfAccuracy(t *testing.T) {
	for x := float32(-90); x <= 5; x += 0.0137 {
		got := float64(expf(x))
		want := math.Exp(float64(x))
		if want < 1e-30 {
			if got > 1e-25 {
				t.Fatalf("expf(%g) = %g, want ~0", x, got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 5e-7 {
			t.Fatalf("expf(%g) = %g, want %g (rel err %.2e)", x, got, want, rel)
		}
	}
	// Top of the finite float32 range: exp(x) stays finite and accurate up
	// to ln(MaxFloat32) ~ 88.72 (the 2^128 scale must be split), and
	// overflows cleanly to +Inf beyond.
	for x := float32(88.0); x <= 88.72; x += 0.0113 {
		got := float64(expf(x))
		want := math.Exp(float64(x))
		if math.IsInf(got, 1) {
			t.Fatalf("expf(%g) overflowed to +Inf, want %g", x, want)
		}
		if rel := math.Abs(got-want) / want; rel > 5e-7 {
			t.Fatalf("expf(%g) = %g, want %g (rel err %.2e)", x, got, want, rel)
		}
	}
	if got := expf(89); !math.IsInf(float64(got), 1) {
		t.Fatalf("expf(89) = %g, want +Inf", got)
	}
}
