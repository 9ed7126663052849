package experiments

import (
	"math"
	"testing"
)

func TestLinearHistogram(t *testing.T) {
	h := newLinearHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.observe(float64(i) + 0.5)
	}
	h.observe(-1) // below range
	h.observe(11) // above range
	for i, p := range h.pdf() {
		if math.Abs(p-1.0/12) > 1e-9 {
			t.Fatalf("bin %d pdf = %v", i, p)
		}
	}
	if c := h.binCenter(0); math.Abs(c-0.5) > 1e-9 {
		t.Fatalf("binCenter(0) = %v", c)
	}
}
