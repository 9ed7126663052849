//go:build amd64 && !purego && !race

package model

import (
	"math"
	"testing"
)

// expSweepStride spaces the inputs of TestExpKernelSweep. At stride 1 the
// sweep checks all 2.24 billion float32 values in [-100, 89].
const expSweepStride = 131

// TestExpKernelSweep checks expAVX2 against expf on every
// expSweepStride-th float32 in [-100, 89], both ends included, and checks
// that each group of eight the kernel refuses holds a value above 88.
func TestExpKernelSweep(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2")
	}
	src := make([]float32, 0, 4096)
	dst := make([]float32, cap(src))
	var checked, refused int
	flush := func() {
		for len(src)%8 != 0 {
			src = append(src, src[len(src)-1])
		}
		for off := 0; off < len(src); {
			n := expAVX2(dst[off:len(src)], src[off:], 0, 1)
			for i := off; i < off+n; i++ {
				if want := expf((src[i] - 0) * 1); !sameBits(dst[i], want) {
					t.Fatalf("expAVX2(%g) = %g (%#08x), expf = %g (%#08x)",
						src[i], dst[i], math.Float32bits(dst[i]), want, math.Float32bits(want))
				}
			}
			checked += n
			off += n
			if off == len(src) {
				break
			}
			high := false
			for _, x := range src[off : off+8] {
				high = high || x > 88
			}
			if !high {
				t.Fatalf("expAVX2 refused %v, which holds nothing above 88", src[off:off+8])
			}
			refused += 8
			off += 8
		}
		src = src[:0]
	}
	for _, r := range []struct {
		sign uint32
		top  float32
	}{{0, 89}, {1 << 31, 100}} {
		end := math.Float32bits(r.top)
		for b := uint32(0); ; b += expSweepStride {
			if b > end {
				b = end
			}
			if src = append(src, math.Float32frombits(r.sign|b)); len(src) == cap(src) {
				flush()
			}
			if b == end {
				break
			}
		}
	}
	flush()
	t.Logf("stride %d: %d inputs matched expf, %d refused as above 88", expSweepStride, checked, refused)
}
