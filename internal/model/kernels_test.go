package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	k     int // TopK's k, -2 to 10
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
// values at a rate of edge/255 and Gaussian otherwise. Byte 6 picks the
// temperature, the low bit of byte 7 replaces it by a random one, and the
// rest of byte 7 picks k.
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
	c.k = int(in[7]>>1)%13 - 2
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

// guardBits fills the lanes just past a kernel's output: a NaN whose
// payload no kernel produces.
const guardBits = 0x7fa5a5a5

// withGuard returns n zero lanes followed, in the same array, by eight
// lanes of guardBits, so checkGuard can tell whether a kernel wrote past
// the end of its slice.
func withGuard(n int) []float32 {
	s := make([]float32, n, n+8)
	for i := range s[n : n+8] {
		s[:n+8][n+i] = math.Float32frombits(guardBits)
	}
	return s
}

func checkGuard(t *testing.T, what string, s []float32) {
	t.Helper()
	for i, x := range s[len(s):cap(s)] {
		if math.Float32bits(x) != guardBits {
			t.Fatalf("%s wrote %#08x at lane %d past the end of its %d lanes", what, math.Float32bits(x), i, len(s))
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

// FuzzAccumulate checks the dispatched Accumulate against accumulateGo,
// and that it writes no lane past dst.
func FuzzAccumulate(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		got := withGuard(c.tb.Vocab)
		want := make([]float32, c.tb.Vocab)
		c.tb.Accumulate(c.feats, got)
		c.tb.accumulateGo(c.feats, want)
		checkSameBits(t, "Accumulate", got, want)
		checkGuard(t, "Accumulate", got)
	})
}

// FuzzAddGrad checks the dispatched AddGrad against addGradGo on two
// copies of one table, and that it writes no lane past the last row.
func FuzzAddGrad(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		ref := c.tb.Clone()
		w := withGuard(len(ref.w))
		copy(w, ref.w)
		c.tb.w = w
		c.tb.AddGrad(c.feats, c.vec, c.lr)
		ref.addGradGo(c.feats, c.vec, c.lr)
		checkSameBits(t, "AddGrad", c.tb.w, ref.w)
		checkGuard(t, "AddGrad", c.tb.w)
	})
}

// FuzzSub checks the dispatched Sub against subGo, with the case's vector
// minus the table's first row, and that it writes no lane past dst.
func FuzzSub(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		b := c.tb.Row(0)
		got := withGuard(len(c.vec))
		want := make([]float32, len(c.vec))
		Sub(got, c.vec, b)
		subGo(want, c.vec, b)
		checkSameBits(t, "Sub", got, want)
		checkGuard(t, "Sub", got)
	})
}

// FuzzSoftmax checks the dispatched Softmax against softmaxGo, and that
// it writes no lane past probs.
func FuzzSoftmax(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		got := withGuard(len(c.vec))
		want := make([]float32, len(c.vec))
		Softmax(c.vec, c.temp, got)
		softmaxGo(c.vec, c.temp, want)
		checkSameBits(t, "Softmax", got, want)
		checkGuard(t, "Softmax", got)
	})
}

// FuzzTopK checks the dispatched TopKInto and TopK against topKGo, index
// for index, on the case's vector and on its Softmax, a draft-like row.
// Both rows are followed within their capacity by +Inf lanes, which would
// enter the top k if the kernel read past the end.
func FuzzTopK(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeKernelCase(data)
		probs := withInfGuard(make([]float32, len(c.vec)))
		Softmax(c.vec, c.temp, probs)
		checkTopK(t, "logits", withInfGuard(c.vec), c.k)
		checkTopK(t, "probs", probs, c.k)
	})
}

// withInfGuard returns a copy of x followed, in the same array, by eight
// +Inf lanes.
func withInfGuard(x []float32) []float32 {
	s := make([]float32, len(x), len(x)+8)
	copy(s, x)
	for i := len(x); i < cap(s); i++ {
		s[:cap(s)][i] = float32(math.Inf(1))
	}
	return s
}

// checkTopK checks TopKInto and TopK against topKGo on x.
func checkTopK(t *testing.T, what string, x []float32, k int) {
	t.Helper()
	want := topKGo(x, k, nil)
	for name, got := range map[string][]int{
		"TopKInto": TopKInto(x, k, make([]int, 3, 16)),
		"TopK":     TopK(x, k),
	} {
		if !slices.Equal(got, want) {
			t.Fatalf("%s(%s of %d lanes, k %d) = %v, topKGo %v", name, what, len(x), k, got, want)
		}
	}
}

// TestTopKEdges checks TopKInto and TopK against topKGo on softmaxEdges,
// whose NaNs sit at lane 0, in the tail and in the last whole group, at
// every k from -2 to 10, and on rows whose k-th value is tied, where the
// strict compares decide which index stays in.
func TestTopKEdges(t *testing.T) {
	row := func(n int, lane func(i int) float32) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = lane(i)
		}
		return x
	}
	negZero := float32(math.Copysign(0, -1))
	edges := append(softmaxEdges(),
		softmaxEdge{"ties at the k-th value of 82", row(82, func(i int) float32 { return float32(i%5) / 4 })},
		softmaxEdge{"-0 and +0 alternating over 19", row(19, func(i int) float32 { return [2]float32{0, negZero}[i%2] })},
		softmaxEdge{"ascending 82", row(82, func(i int) float32 { return float32(i) })},
	)
	for _, e := range edges {
		for k := -2; k <= 10; k++ {
			checkTopK(t, e.name, withInfGuard(e.logits), k)
		}
	}
}

// softmaxEdge is one hand-built logits vector for TestSoftmaxEdges.
type softmaxEdge struct {
	name   string
	logits []float32
}

// softmaxEdges returns the vectors where the vector Softmax could part from
// softmaxGo: NaNs, where the vector max may not be maxLogit's; a maximum
// tied between -0 and +0; infinities; and vocabularies on either side of
// whole groups of eight, where the last group of exponentials overlaps.
func softmaxEdges() []softmaxEdge {
	rng := rand.New(rand.NewSource(23))
	gauss := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * 3)
		}
		return x
	}
	with := func(x []float32, lanes map[int]float32) []float32 {
		for i, v := range lanes {
			x[i] = v
		}
		return x
	}
	// negative returns n lanes below zero, so a zero lane is the maximum.
	negative := func(n int) []float32 {
		x := gauss(n)
		for i := range x {
			x[i] = -1 - float32(math.Abs(float64(x[i])))
		}
		return x
	}
	fill := func(n int, v float32) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = v
		}
		return x
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	edges := []softmaxEdge{
		{"nan at lane 0 of 82", with(gauss(82), map[int]float32{0: nan})},
		{"nan at lane 0 of 9", with(gauss(9), map[int]float32{0: nan})},
		{"nan only in the tail of 82", with(gauss(82), map[int]float32{81: nan})},
		{"nan only in the tail of 9", with(gauss(9), map[int]float32{8: nan})},
		{"nan in the last whole group of 82", with(gauss(82), map[int]float32{75: nan})},
		{"-0 before +0 as the maximum of 82", with(negative(82), map[int]float32{3: negZero, 40: 0})},
		{"+0 before -0 as the maximum of 16", with(negative(16), map[int]float32{2: 0, 13: negZero})},
		{"-0 and +0 in one group of 8", with(negative(8), map[int]float32{1: negZero, 6: 0})},
		{"every lane -Inf of 82", fill(82, float32(math.Inf(-1)))},
		{"every lane -Inf of 5", fill(5, float32(math.Inf(-1)))},
		{"+Inf as the maximum of 82", with(gauss(82), map[int]float32{30: inf})},
		{"+Inf as the maximum in the tail of 82", with(gauss(82), map[int]float32{80: inf})},
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 82} {
		edges = append(edges, softmaxEdge{fmt.Sprintf("vocab %d", n), gauss(n)})
	}
	return edges
}

// TestSoftmaxEdges checks the dispatched Softmax against softmaxGo, bit
// for bit or both NaN, on softmaxEdges at ordinary temperatures and at
// ones whose inverse is huge or overflows float32.
func TestSoftmaxEdges(t *testing.T) {
	for _, e := range softmaxEdges() {
		for _, temp := range []float64{1, 0.9, 1e-30, 5e-324} {
			got := withGuard(len(e.logits))
			want := make([]float32, len(e.logits))
			Softmax(e.logits, temp, got)
			softmaxGo(e.logits, temp, want)
			what := fmt.Sprintf("Softmax(%s, temp %g)", e.name, temp)
			checkSameBits(t, what, got, want)
			checkGuard(t, what, got)
		}
	}
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
		"Sub short dst":          func() { Sub(dst[:18], grad, grad) },
		"Sub short a":            func() { Sub(dst, grad[:18], grad) },
		"Sub short b":            func() { Sub(dst, grad, grad[:18]) },
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
	top := make([]int, 0, 6)
	for name, call := range map[string]func(){
		"Accumulate": func() { tb.Accumulate(feats, dst) },
		"AddGrad":    func() { tb.AddGrad(feats, vec, 1e-3) },
		"Softmax":    func() { Softmax(vec, 0.9, dst) },
		"Sub":        func() { Sub(dst, vec, vec) },
		"TopKInto":   func() { top = TopKInto(vec, 6, top) },
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
