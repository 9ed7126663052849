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
//
// Five loops dominate the host cost of training and drafting:
// Table.Accumulate, Table.AddGrad, Softmax, Sub (the drafter's KD
// gradient) and TopK, which picks every drafted node's children. On amd64
// CPUs with AVX2 they run hand-written kernels (kernels_amd64.s), chosen
// once at start-up from CPUID, that reproduce the Go loops in table.go bit
// for bit, or for TopK index for index. The table kernels and Sub cover
// every lane, the vocab mod 8 tail through masked loads and stores;
// Softmax's max scan and exponentials run in AVX2, and its greedy branch,
// its sum and the inputs its kernels refuse stay in Go; TopK's kernel
// takes k up to 8 over at least eight lanes without a NaN. The Go loops
// stay as the reference and run everywhere else: on other architectures,
// on CPUs without AVX2, and in builds tagged purego or built with -race,
// since the race detector cannot see memory that assembly touches.
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
// which must have length Vocab; dst's old contents are overwritten. Every
// feature must index a row of the table.
//
// Lane v of dst becomes row0[v] + f1[v] + f2[v] + ..., added in feature
// order, one float32 rounding per add. The AVX2 kernel keeps that order in
// every lane, so it reproduces accumulateGo, the reference, bit for bit.
func (t *Table) Accumulate(features []int, dst []float32) {
	if len(dst) != t.Vocab {
		panic("model: logits buffer has wrong length")
	}
	t.checkRows(features)
	accumulate(t, features, dst)
}

// accumulateGo is the reference Accumulate, and the whole of it where the
// AVX2 kernel is unavailable.
func (t *Table) accumulateGo(features []int, dst []float32) {
	dst = dst[:t.Vocab]
	copy(dst, t.w[:t.Vocab])
	for _, f := range features {
		row := t.w[f*t.Vocab : (f+1)*t.Vocab]
		row = row[:len(dst)]
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

// AddGrad applies dst-row updates: for the bias row and then every
// feature row in order, w[f][v] += lr * grad[v]. grad must have length
// Vocab, and every feature must index a row of the table. A repeated
// feature is updated once per occurrence.
//
// Each update rounds twice, once for lr*grad[v] and once for the add. The
// AVX2 kernel does the same, computing lr*grad[v] once for all the rows it
// updates, and so reproduces addGradGo bit for bit.
func (t *Table) AddGrad(features []int, grad []float32, lr float32) {
	if len(grad) != t.Vocab {
		panic("model: gradient has wrong length")
	}
	t.checkRows(features)
	addGrad(t, features, grad, lr)
}

// addGradGo is the reference AddGrad, as accumulateGo is for Accumulate.
// The float32 conversion forbids fusing the multiply into the add, which
// would round once.
func (t *Table) addGradGo(features []int, grad []float32, lr float32) {
	grad = grad[:t.Vocab]
	apply := func(r int) {
		row := t.w[r*t.Vocab : (r+1)*t.Vocab]
		for v := range row {
			row[v] += float32(lr * grad[v])
		}
	}
	apply(0)
	for _, f := range features {
		apply(f)
	}
}

// checkRows panics unless every feature indexes a row of t. The kernels
// do no bounds checks, so an out-of-range feature must stop here instead
// of reading or writing another row.
func (t *Table) checkRows(features []int) {
	for _, f := range features {
		if uint(f) >= uint(t.Rows) {
			panic(fmt.Sprintf("model: feature row %d outside a table of %d rows", f, t.Rows))
		}
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
//
// The AVX2 kernels find the max and compute the exponentials and the
// final scaling eight lanes at a time, the exponentials with expf's
// float32 operations in expf's order. The two-lane sum, the max of inputs
// with a NaN or under eight lanes, and the lanes the exponential kernel
// refuses run in Go, so Softmax reproduces softmaxGo, the reference, bit
// for bit.
func Softmax(logits []float32, temp float64, probs []float32) {
	if len(probs) != len(logits) {
		panic("model: probs buffer has wrong length")
	}
	softmax(logits, temp, probs)
}

// Sub sets dst[i] = a[i] - b[i], one float32 rounding per lane. The three
// slices must have one length. Drafter training computes its KD gradient,
// the target distribution minus the prediction, with it. The AVX2 kernel
// reproduces subGo, the reference, bit for bit.
func Sub(dst, a, b []float32) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("model: Sub operands differ in length")
	}
	sub(dst, a, b)
}

// subGo is the reference Sub.
func subGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// softmaxGo is the reference Softmax.
func softmaxGo(logits []float32, temp float64, probs []float32) {
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
	maxL := maxLogit(logits)
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

// maxLogit returns the largest of logits, scanning in index order.
func maxLogit(logits []float32) float32 {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	return maxL
}

// expf's constants. expAVX2 reads them through expTab, rounded to float32
// from these same values, so the scalar and vector paths agree.
const (
	expLog2e = 1.44269504088896341
	expLn2Hi = 6.93359375e-1
	expLn2Lo = -2.12194440e-4
	expP0    = 1.9875691500e-4
	expP1    = 1.3981999507e-3
	expP2    = 8.3334519073e-3
	expP3    = 4.1665795894e-2
	expP4    = 1.6666665459e-1
	expP5    = 5.0000001201e-1
	// expUnder is where e^x is flushed to zero.
	expUnder = -87.3
)

// expf is a fast float32 e^x (cephes-style degree-5 minimax after
// range reduction, relative error ~2e-7). Softmax is the single hottest
// function in a speculation round — every drafted node and every verified
// tree position pays one softmax over the vocabulary — and the float64
// library exp was a large fraction of its cost. Inputs here are max-shifted
// (x <= 0), but the full float32 range is handled.
//
// expf is also the bit-exact contract of the AVX2 exponential: that kernel
// performs these float32 operations in this order lane by lane, and
// leaves inputs above 88 and NaN to this function. The float32
// conversions forbid fusing a multiply into the following add or
// subtract, which would round once where this code rounds twice.
func expf(x float32) float32 {
	if x < expUnder {
		return 0
	}
	if x > 88.73 { // just above ln(MaxFloat32); below it the split scale stays finite
		return float32(math.Inf(1))
	}
	// n = round(x/ln2); r = x - n*ln2 in [-ln2/2, ln2/2].
	z := x * expLog2e
	var n int32
	if z >= 0 {
		n = int32(z + 0.5)
	} else {
		n = int32(z - 0.5)
	}
	fn := float32(n)
	r := x - float32(fn*expLn2Hi)
	r -= float32(fn * expLn2Lo)
	// exp(r) ~ 1 + r + r^2*P(r).
	p := float32(expP0)
	p = float32(p*r) + expP1
	p = float32(p*r) + expP2
	p = float32(p*r) + expP3
	p = float32(p*r) + expP4
	p = float32(p*r) + expP5
	y := float32(float32(p*r)*r) + r + 1
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
// broken by ascending index). k is clamped to [0, len(probs)].
func TopK(probs []float32, k int) []int {
	k = min(max(k, 0), len(probs))
	return TopKInto(probs, k, make([]int, 0, k))
}

// TopKInto is TopK writing into dst (reset to dst[:0]), allocation-free
// once dst has capacity k. It returns an empty list for k <= 0.
//
// On AVX2 CPUs, for k up to 8 over at least eight lanes, a kernel finds a
// threshold at least k entries reach and inserts only those entries into
// a sorted buffer held in vector registers. Its indices are those of
// topKGo, the reference, for every input: a NaN sends the call to topKGo.
func TopKInto(probs []float32, k int, dst []int) []int {
	return topK(probs, k, dst)
}

// topKGo is the reference TopKInto: a single scan with an insertion
// buffer. Most entries fail the cheap "beats the current k-th" test, so
// the common cost is one compare per vocabulary entry.
func topKGo(probs []float32, k int, dst []int) []int {
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
