//go:build amd64 && !purego && !race

package model

// useAVX2 selects the kernels of kernels_amd64.s. It is set once, at
// package initialisation, from CPUID.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: OSXSAVE and AVX in CPUID leaf 1, the SSE and AVX state bits
// in XCR0, and AVX2 in leaf 7.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// accumulateAVX2 is accumulateGo over lanes [0, vocab&^7) of dst, where
// w holds the table's rows of vocab weights.
//
//go:noescape
func accumulateAVX2(dst, w []float32, vocab int, features []int)

// addGradAVX2 is addGradGo over lanes [0, vocab&^7).
//
//go:noescape
func addGradAVX2(w []float32, vocab int, features []int, grad []float32, lr float32)

// expAVX2 sets dst[i] = expf((src[i]-maxL)*invTemp) eight lanes at a time
// over the leading len(src)&^7 lanes. It stops before the first group of
// eight that holds a value above 88 or a NaN, and returns how many lanes
// it wrote.
//
//go:noescape
func expAVX2(dst, src []float32, maxL, invTemp float32) (done int)

// scaleAVX2 multiplies the leading len(p)&^7 lanes of p by s.
//
//go:noescape
func scaleAVX2(p []float32, s float32)

// expTab holds expf's constants, each broadcast to eight lanes, in the
// order expAVX2 reads them. splat's float32 parameter rounds each one
// exactly as expf's float32 arithmetic does.
var expTab = [...][8]float32{
	splat(expLog2e), splat(0.5), splat(expLn2Hi), splat(expLn2Lo),
	splat(expP0), splat(expP1), splat(expP2), splat(expP3), splat(expP4), splat(expP5),
	splat(1), splat(expUnder), splat(88),
}

func splat(c float32) [8]float32 { return [8]float32{c, c, c, c, c, c, c, c} }

func accumulate(t *Table, features []int, dst []float32) {
	if !useAVX2 {
		t.accumulateGo(features, dst, 0)
		return
	}
	accumulateAVX2(dst, t.w, t.Vocab, features)
	if n8 := t.Vocab &^ 7; n8 < t.Vocab {
		t.accumulateGo(features, dst, n8)
	}
}

func addGrad(t *Table, features []int, grad []float32, lr float32) {
	if !useAVX2 {
		t.addGradGo(features, grad, lr, 0)
		return
	}
	addGradAVX2(t.w, t.Vocab, features, grad, lr)
	if n8 := t.Vocab &^ 7; n8 < t.Vocab {
		t.addGradGo(features, grad, lr, n8)
	}
}

// softmax is softmaxGo with the exponentials and the final scaling in
// AVX2. The greedy branch, the max scan, lanes the kernel leaves, the
// tail of len mod 8 lanes and the two-lane sum run in Go, the sum in
// softmaxGo's order: a vector sum would reorder it.
func softmax(logits []float32, temp float64, probs []float32) {
	if !useAVX2 || temp <= 0 {
		softmaxGo(logits, temp, probs)
		return
	}
	maxL := maxLogit(logits)
	invTemp := float32(1 / temp)
	for i := expAVX2(probs, logits, maxL, invTemp); i < len(logits); i++ {
		probs[i] = expf((logits[i] - maxL) * invTemp)
	}
	var sum0, sum1 float32
	i := 0
	for ; i+2 <= len(probs); i += 2 {
		sum0 += probs[i]
		sum1 += probs[i+1]
	}
	if i < len(probs) {
		sum0 += probs[i]
	}
	inv := 1 / (sum0 + sum1)
	scaleAVX2(probs, inv)
	for i := len(probs) &^ 7; i < len(probs); i++ {
		probs[i] *= inv
	}
}
