package model

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kernelCase is one set of arguments for the table and softmax kernels,
// decoded from fuzz input by decodeKernelCase.
type kernelCase struct {
	tb    *Table
	feats []int     // rows of tb, with repeats
	vec   []float32 // Vocab long: AddGrad's gradient, Softmax's logits
	lr    float32
	temp  float64
}

// edgeFloats are the inputs where a kernel is most likely to part from
// the Go loop: signed zeros, infinities, NaNs with and without payload,
// subnormals, and the edges of expf's ranges.
var edgeFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
	math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007fffff),
	math.Float32frombits(0x00800000), math.MaxFloat32, -math.MaxFloat32,
	expUnder, math.Nextafter32(expUnder, 0), math.Nextafter32(expUnder, -100),
	88, math.Nextafter32(88, 100), 88.73, math.Nextafter32(88.73, 100), 88.72, -88.73,
	1, -1, 0.5,
}

// edgeTemps are Softmax temperatures: the greedy branch, tiny values whose
// inverse overflows float32, ordinary values, and non-finite ones.
var edgeTemps = []float64{0, -1, 5e-324, 1e-40, 1e-30, 1e-4, 0.01, 0.5, 0.9, 1, 1.7, 3, math.Inf(1), math.NaN()}

// decodeKernelCase reads the shape and the value mix from the first bytes
// of data and draws the values from a generator seeded by the next eight:
// a vocabulary of 1-300, 1-16 rows, 0-80 features, weights that are edge
// values at a rate of edge/255 and Gaussian otherwise.
func decodeKernelCase(data []byte) kernelCase {
	var in [16]byte
	copy(in[:], data)
	vocab := 1 + int(binary.LittleEndian.Uint16(in[0:]))%300
	rows := 1 + int(in[2])%16
	nfeat := int(in[3]) % 81
	edge := int(in[4])
	scale := math.Ldexp(1, int(in[5])%40-20)
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(in[8:]))))
	draw := func() float32 {
		if rng.Intn(255) < edge {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		return float32(rng.NormFloat64() * scale)
	}
	c := kernelCase{tb: NewTable(rows, vocab), feats: make([]int, nfeat), vec: make([]float32, vocab)}
	for i := range c.tb.w {
		c.tb.w[i] = draw()
	}
	for i := range c.feats {
		c.feats[i] = rng.Intn(rows)
	}
	for i := range c.vec {
		c.vec[i] = draw()
	}
	c.lr = draw()
	c.temp = edgeTemps[int(in[6])%len(edgeTemps)]
	if in[7]&1 == 1 {
		c.temp = rng.Float64() * 3
	}
	return c
}

// sameBits reports whether a and b have the same bits or are both NaN.
// NaN payloads cannot reach a token stream: SampleProbs treats every NaN
// alike.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func checkSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s lane %d of %d: kernel %g (%#08x), reference %g (%#08x)",
				what, i, len(want), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// addKernelSeeds adds generated inputs to the committed corpus, so plain
// go test also covers a spread of shapes and value mixes.
func addKernelSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		b := make([]byte, 16)
		rng.Read(b)
		f.Add(b)
	}
}

// FuzzAccumulate checks the dispatched Accumulate against accumulateGo.
func FuzzAccumulate(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		got := make([]float32, c.tb.Vocab)
		want := make([]float32, c.tb.Vocab)
		c.tb.Accumulate(c.feats, got)
		c.tb.accumulateGo(c.feats, want, 0)
		checkSameBits(t, "Accumulate", got, want)
	})
}

// FuzzAddGrad checks the dispatched AddGrad against addGradGo on two
// copies of one table.
func FuzzAddGrad(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		ref := c.tb.Clone()
		c.tb.AddGrad(c.feats, c.vec, c.lr)
		ref.addGradGo(c.feats, c.vec, c.lr, 0)
		checkSameBits(t, "AddGrad", c.tb.w, ref.w)
	})
}

// FuzzSoftmax checks the dispatched Softmax against softmaxGo.
func FuzzSoftmax(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		got := make([]float32, len(c.vec))
		want := make([]float32, len(c.vec))
		Softmax(c.vec, c.temp, got)
		softmaxGo(c.vec, c.temp, want)
		checkSameBits(t, "Softmax", got, want)
	})
}

// TestKernelsRejectBadArguments: the kernels do no bounds checks, so the
// wrappers must panic on an out-of-range feature or a buffer of the wrong
// length before any kernel runs, and leave the weights untouched.
func TestKernelsRejectBadArguments(t *testing.T) {
	tb := NewTable(4, 19)
	tb.Randomize(rand.New(rand.NewSource(1)), 1)
	before := append([]float32(nil), tb.w...)
	dst := make([]float32, 19)
	grad := make([]float32, 19)
	cases := map[string]func(){
		"Accumulate row -1":      func() { tb.Accumulate([]int{1, -1}, dst) },
		"Accumulate row Rows":    func() { tb.Accumulate([]int{1, 4}, dst) },
		"Accumulate short dst":   func() { tb.Accumulate([]int{1}, dst[:18]) },
		"AddGrad row -1":         func() { tb.AddGrad([]int{1, -1}, grad, 1) },
		"AddGrad row Rows":       func() { tb.AddGrad([]int{2, 4}, grad, 1) },
		"AddGrad short gradient": func() { tb.AddGrad([]int{1}, grad[:18], 1) },
		"AddGrad long gradient":  func() { tb.AddGrad([]int{1}, append(grad, 0), 1) },
		"Softmax short probs":    func() { Softmax(dst, 1, grad[:18]) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	checkSameBits(t, "weights after rejected calls", tb.w, before)
}

// TestKernelsZeroAllocs pins the kernels at zero allocations on the
// drafter's shape.
func TestKernelsZeroAllocs(t *testing.T) {
	tb, feats, vec := drafterShape()
	dst := make([]float32, tb.Vocab)
	for name, call := range map[string]func(){
		"Accumulate": func() { tb.Accumulate(feats, dst) },
		"AddGrad":    func() { tb.AddGrad(feats, vec, 1e-3) },
		"Softmax":    func() { Softmax(vec, 0.9, dst) },
	} {
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/call, want 0", name, allocs)
		}
	}
}

// drafterShape returns a table, feature list and vocabulary vector at the
// Eagle drafter's shape: 82 tokens, 13 active rows of 65,865.
func drafterShape() (*Table, []int, []float32) {
	const vocab, rows = 82, 65865
	rng := rand.New(rand.NewSource(5))
	tb := NewTable(rows, vocab)
	tb.Randomize(rng, 0.05)
	feats := make([]int, 13)
	for i := range feats {
		feats[i] = 1 + rng.Intn(rows-1)
	}
	vec := make([]float32, vocab)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64() * 3)
	}
	return tb, feats, vec
}
