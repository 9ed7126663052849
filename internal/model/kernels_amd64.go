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

// accumulateAVX2 is accumulateGo, where w holds the table's rows of vocab
// weights.
//
//go:noescape
func accumulateAVX2(dst, w []float32, vocab int, features []int)

// addGradAVX2 is addGradGo.
//
//go:noescape
func addGradAVX2(w []float32, vocab int, features []int, grad []float32, lr float32)

// subAVX2 is subGo.
//
//go:noescape
func subAVX2(dst, a, b []float32)

// maxAVX2 returns the largest of x, which must hold at least eight lanes,
// and whether any lane is NaN; only when none is does m equal
// maxLogit(x), up to the sign of a zero maximum.
//
//go:noescape
func maxAVX2(x []float32) (m float32, nan bool)

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

// topKAVX2 writes to idx the indices topKGo(x, k) returns, and any
// indices to the lanes from k on. x must hold at least eight lanes and
// fewer than 2^31, and k must be in [1, 8]. It returns false, with idx
// unspecified, when any lane of x is NaN.
//
//go:noescape
func topKAVX2(x []float32, k int, idx *[8]int) (ok bool)

// expTab holds expf's constants, each broadcast to eight lanes, in the
// order expAVX2 reads them. splat's float32 parameter rounds each one
// exactly as expf's float32 arithmetic does.
var expTab = [...][8]float32{
	splat(expLog2e), splat(0.5), splat(expLn2Hi), splat(expLn2Lo),
	splat(expP0), splat(expP1), splat(expP2), splat(expP3), splat(expP4), splat(expP5),
	splat(1), splat(expUnder), splat(88),
}

func splat(c float32) [8]float32 { return [8]float32{c, c, c, c, c, c, c, c} }

// tailMask is eight int32 lanes of -1 and then eight of 0. The eight read
// from lane 8-r on are the VMASKMOVPS mask of a group's first r lanes.
var tailMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// topKShift holds the VPERMD indices with which topKAVX2 moves each lane
// of its buffer up one, lane 0 keeping its own.
var topKShift = [8]int32{0, 0, 1, 2, 3, 4, 5, 6}

func accumulate(t *Table, features []int, dst []float32) {
	if !useAVX2 {
		t.accumulateGo(features, dst)
		return
	}
	accumulateAVX2(dst, t.w, t.Vocab, features)
}

func addGrad(t *Table, features []int, grad []float32, lr float32) {
	if !useAVX2 {
		t.addGradGo(features, grad, lr)
		return
	}
	addGradAVX2(t.w, t.Vocab, features, grad, lr)
}

func sub(dst, a, b []float32) {
	if !useAVX2 {
		subGo(dst, a, b)
		return
	}
	subAVX2(dst, a, b)
}

// softmax is softmaxGo with the max scan, the exponentials and the final
// scaling in AVX2. The max comes from softmaxMax. A zero maximum may come
// out as the other zero, which changes x - maxL only in the sign of a
// zero, and expf(-0) = expf(+0) = 1. The lanes past the last whole group
// get their exponentials from a rerun of expAVX2 on the last eight lanes,
// so the lanes both runs cover get the same bits twice. The greedy branch,
// the lanes the kernel refuses (x > 88 or NaN) and the two-lane sum run in
// Go, the sum in softmaxGo's order: a vector sum would reorder it. The
// scaling runs in place, so its tail stays in Go.
func softmax(logits []float32, temp float64, probs []float32) {
	if !useAVX2 || temp <= 0 {
		softmaxGo(logits, temp, probs)
		return
	}
	n := len(logits)
	maxL := softmaxMax(logits)
	invTemp := float32(1 / temp)
	done := expAVX2(probs, logits, maxL, invTemp)
	if n >= 8 && done == n&^7 && done < n && expAVX2(probs[n-8:], logits[n-8:], maxL, invTemp) == 8 {
		done = n
	}
	for i := done; i < n; i++ {
		probs[i] = expf((logits[i] - maxL) * invTemp)
	}
	var sum0, sum1 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		sum0 += probs[i]
		sum1 += probs[i+1]
	}
	if i < n {
		sum0 += probs[i]
	}
	inv := 1 / (sum0 + sum1)
	scaleAVX2(probs, inv)
	for i := n &^ 7; i < n; i++ {
		probs[i] *= inv
	}
}

// softmaxMax is the max softmax subtracts: maxAVX2's, unless the logits
// are shorter than eight lanes or hold a NaN, and then maxLogit's. Either
// way it is maxLogit's value, up to the sign of a zero maximum: maxLogit
// returns NaN for a NaN at lane 0 and skips NaNs elsewhere, where VMAXPS
// keeps or drops a NaN by operand order.
func softmaxMax(logits []float32) float32 {
	if len(logits) >= 8 {
		if m, nan := maxAVX2(logits); !nan {
			return m
		}
	}
	return maxLogit(logits)
}

// topK is topKGo with topKAVX2 for k <= 8 over at least eight lanes. A
// NaN anywhere sends the call to topKGo, whose NaN handling the kernel
// does not reproduce.
func topK(probs []float32, k int, dst []int) []int {
	if !useAVX2 || k <= 0 || k > 8 || len(probs) < 8 || len(probs) >= 1<<31 {
		return topKGo(probs, k, dst)
	}
	var idx [8]int
	if !topKAVX2(probs, k, &idx) {
		return topKGo(probs, k, dst)
	}
	return append(dst[:0], idx[:k]...)
}
