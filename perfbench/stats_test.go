package main

import (
	"math"
	"testing"
)

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {0.5, 1, 99}} {
		v, n := percentile(xs, c.p)
		if v != c.value || n != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, n, c.value, c.beyond)
		}
	}
	if v, n := percentile([]float64{1, 2, 2, 2, 3}, 50); v != 2 || n != 1 {
		t.Errorf("tied p50 = %v with %d beyond, want 2 with 1", v, n)
	}
	if v, n := percentile(nil, 90); v != 0 || n != 0 {
		t.Errorf("empty p90 = %v, %d", v, n)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread bounds use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1.5, 9, 2.6}, [3]float64{1.375, 2.8, 5.25}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}
