// Package model implements the simulated target language model.
//
// The target LM is a featurised softmax model: hashed n-gram context
// features (plus prompt-conditioned features standing in for attention to
// the prompt) index rows of a weight table whose sum gives next-token
// logits. The model is small enough to train by SGD inside tests, yet has
// the properties the paper's system dynamics depend on: a genuine
// probability distribution per step, genuine distribution shift under RL
// policy-gradient updates, and an internal "hidden state" that Eagle-style
// drafters can condition on.
package model

import (
	"fmt"
	"math"
	"math/rand"
)

// Table is a dense weight matrix of feature rows over the vocabulary with
// the row operations needed for inference and SGD. Row 0 is reserved as
// the bias row and is always active.
type Table struct {
	Vocab int
	Rows  int
	w     []float32 // Rows*Vocab, row-major
}

// NewTable allocates a zeroed table.
func NewTable(rows, vocab int) *Table {
	if rows < 1 || vocab < 1 {
		panic(fmt.Sprintf("model: invalid table shape %dx%d", rows, vocab))
	}
	return &Table{Vocab: vocab, Rows: rows, w: make([]float32, rows*vocab)}
}

// Randomize fills the table with Gaussian noise of the given scale. Larger
// scales yield more peaked (lower-entropy) next-token distributions.
func (t *Table) Randomize(rng *rand.Rand, scale float64) {
	for i := range t.w {
		t.w[i] = float32(rng.NormFloat64() * scale)
	}
}

// Row returns a mutable view of row r.
func (t *Table) Row(r int) []float32 {
	return t.w[r*t.Vocab : (r+1)*t.Vocab]
}

// Accumulate adds the given feature rows (plus the bias row 0) into dst,
// which must have length Vocab. dst is zeroed first. The add loop is
// unrolled four-wide: row accumulation is the inner loop of every forward
// pass and the independent lanes break the dependent-add chain.
func (t *Table) Accumulate(features []int, dst []float32) {
	if len(dst) != t.Vocab {
		panic("model: logits buffer has wrong length")
	}
	copy(dst, t.Row(0))
	for _, f := range features {
		row := t.Row(f)[:len(dst)]
		v := 0
		for ; v+4 <= len(dst); v += 4 {
			d := dst[v : v+4 : v+4]
			r := row[v : v+4 : v+4]
			d[0] += r[0]
			d[1] += r[1]
			d[2] += r[2]
			d[3] += r[3]
		}
		for ; v < len(dst); v++ {
			dst[v] += row[v]
		}
	}
}

// AddGrad applies dst-row updates: for every active feature row (and the
// bias row), w[f][v] += lr * grad[v].
func (t *Table) AddGrad(features []int, grad []float32, lr float32) {
	apply := func(r int) {
		row := t.Row(r)
		for v := range row {
			row[v] += lr * grad[v]
		}
	}
	apply(0)
	for _, f := range features {
		apply(f)
	}
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	c := NewTable(t.Rows, t.Vocab)
	copy(c.w, t.w)
	return c
}

// CopyFrom overwrites this table's weights from src (shapes must match).
func (t *Table) CopyFrom(src *Table) {
	if t.Rows != src.Rows || t.Vocab != src.Vocab {
		panic("model: table shape mismatch in CopyFrom")
	}
	copy(t.w, src.w)
}

// Weights exposes the raw weight slice (for checkpointing).
func (t *Table) Weights() []float32 { return t.w }

// L2Distance returns the Euclidean distance between two same-shaped
// tables, a cheap drift measure between model versions.
func (t *Table) L2Distance(o *Table) float64 {
	if t.Rows != o.Rows || t.Vocab != o.Vocab {
		panic("model: table shape mismatch in L2Distance")
	}
	var s float64
	for i := range t.w {
		d := float64(t.w[i] - o.w[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// Softmax writes softmax(logits/temp) into probs. A temperature of zero
// (or below) produces a one-hot argmax distribution, matching greedy
// decoding semantics.
func Softmax(logits []float32, temp float64, probs []float32) {
	if len(probs) != len(logits) {
		panic("model: probs buffer has wrong length")
	}
	if temp <= 0 {
		best := 0
		for i, l := range logits {
			if l > logits[best] {
				best = i
			}
		}
		for i := range probs {
			probs[i] = 0
		}
		probs[best] = 1
		return
	}
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	invTemp := float32(1 / temp)
	// Two accumulator lanes: exp values are positive and bounded by 1
	// (max-shifted), so float32 summation over a vocabulary is exact to
	// ~1e-6 relative, and the split lanes overlap expf latency.
	var sum0, sum1 float32
	i := 0
	for ; i+2 <= len(logits); i += 2 {
		e0 := expf((logits[i] - maxL) * invTemp)
		e1 := expf((logits[i+1] - maxL) * invTemp)
		probs[i] = e0
		probs[i+1] = e1
		sum0 += e0
		sum1 += e1
	}
	if i < len(logits) {
		e := expf((logits[i] - maxL) * invTemp)
		probs[i] = e
		sum0 += e
	}
	inv := 1 / (sum0 + sum1)
	for i := range probs {
		probs[i] *= inv
	}
}

// expf is a fast float32 e^x (cephes-style degree-5 minimax after
// range reduction, relative error ~2e-7). Softmax is the single hottest
// function in a speculation round — every drafted node and every verified
// tree position pays one softmax over the vocabulary — and the float64
// library exp was a large fraction of its cost. Inputs here are max-shifted
// (x <= 0), but the full float32 range is handled.
func expf(x float32) float32 {
	const (
		log2e = 1.44269504088896341
		ln2Hi = 6.93359375e-1
		ln2Lo = -2.12194440e-4
	)
	if x < -87.3 {
		return 0
	}
	if x > 88.73 { // just above ln(MaxFloat32); below it the split scale stays finite
		return float32(math.Inf(1))
	}
	// n = round(x/ln2); r = x - n*ln2 in [-ln2/2, ln2/2].
	z := x * log2e
	var n int32
	if z >= 0 {
		n = int32(z + 0.5)
	} else {
		n = int32(z - 0.5)
	}
	fn := float32(n)
	r := x - fn*ln2Hi
	r -= fn * ln2Lo
	// exp(r) ~ 1 + r + r^2*P(r).
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	y := p*r*r + r + 1
	// Scale by 2^n via the exponent bits; n in [-126, 128] after clamps.
	// The extremes are split into two factors: a single 2^128 (or a
	// subnormal 2^n) is not representable even when the product is.
	if n >= 128 {
		return y * math.Float32frombits(uint32(64+127)<<23) *
			math.Float32frombits(uint32(n-64+127)<<23)
	}
	if n <= -127 {
		return y * math.Float32frombits(uint32(-63+127)<<23) *
			math.Float32frombits(uint32(n+63+127)<<23)
	}
	return y * math.Float32frombits(uint32(n+127)<<23)
}

// SampleProbs draws a token index from a probability vector.
func SampleProbs(probs []float32, rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	for i, p := range probs {
		cum += float64(p)
		if u < cum {
			return i
		}
	}
	return len(probs) - 1
}

// TopK returns the indices of the k largest entries, descending (ties
// broken by ascending index). k is clamped to len(probs).
func TopK(probs []float32, k int) []int {
	if k > len(probs) {
		k = len(probs)
	}
	return TopKInto(probs, k, make([]int, 0, k))
}

// TopKInto is TopK writing into dst (reset to dst[:0]), allocation-free
// once dst has capacity k. It keeps TopK's exact ordering — values
// descending, ties by ascending index — via a single scan with an
// insertion buffer: most entries fail the cheap "beats the current k-th"
// test, so the common cost is one compare per vocabulary entry instead of
// the k full passes the old implementation made.
func TopKInto(probs []float32, k int, dst []int) []int {
	if k > len(probs) {
		k = len(probs)
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	for i, p := range probs {
		if len(dst) == k {
			if p <= probs[dst[k-1]] {
				continue
			}
			dst = dst[:k-1]
		}
		// Insert i keeping descending order; equal values keep the
		// earlier index first, matching the historical tie-break.
		j := len(dst)
		dst = append(dst, i)
		for j > 0 && probs[dst[j-1]] < p {
			dst[j] = dst[j-1]
			j--
		}
		dst[j] = i
	}
	return dst
}
