package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileEmptyAndNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"nil", nil, 50, 0},
		{"empty", []float64{}, 95, 0},
		{"all-nan", []float64{nan, nan}, 50, 0},
		{"nan-ignored-median", []float64{nan, 1, 3, nan}, 50, 2},
		{"nan-ignored-p0", []float64{5, nan, 2}, 0, 2},
		{"nan-ignored-p100", []float64{5, nan, 2}, 100, 5},
		{"single-after-filter", []float64{nan, 7}, 95, 7},
	}
	for _, c := range cases {
		got := Percentile(c.xs, c.p)
		if math.IsNaN(got) || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", c.name, c.xs, c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		got := Percentile(xs, p)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return got >= sorted[0] && got <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedian(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if m := Median(xs); math.Abs(m-4.5) > 1e-9 {
		t.Errorf("Median = %v", m)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 || Min(xs) != -1 {
		t.Fatalf("Max/Min = %v/%v", Max(xs), Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty Max/Min should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 2", g)
	}
	// Non-positive entries skipped.
	if g := GeoMean([]float64{-3, 0, 1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("GeoMean with junk = %v, want 2", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean should be 0")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for i := 1; i <= 5; i++ {
		w.Push(float64(i))
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	vals := w.Values()
	sort.Float64s(vals)
	if vals[0] != 3 || vals[2] != 5 {
		t.Fatalf("window should hold {3,4,5}, got %v", vals)
	}
	if w.Median() != 4 {
		t.Fatalf("Median = %v, want 4", w.Median())
	}
	if w.Mean() != 4 {
		t.Fatalf("Mean = %v, want 4", w.Mean())
	}
}

func TestWindowCapacityClamp(t *testing.T) {
	w := NewWindow(0)
	w.Push(1)
	w.Push(2)
	if w.Len() != 1 || w.Values()[0] != 2 {
		t.Fatalf("capacity clamp failed: %v", w.Values())
	}
}

func TestWindowSlidingProperty(t *testing.T) {
	// The window always holds the most recent min(n, cap) values.
	rng := rand.New(rand.NewSource(1))
	w := NewWindow(16)
	var all []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		all = append(all, x)
		w.Push(x)
		start := 0
		if len(all) > 16 {
			start = len(all) - 16
		}
		want := append([]float64(nil), all[start:]...)
		got := w.Values()
		sort.Float64s(want)
		sort.Float64s(got)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("at step %d window contents diverge", i)
			}
		}
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Fatalf("zero-duration throughput = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22222")
	s := tbl.String()
	if len(s) == 0 {
		t.Fatal("empty render")
	}
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", lines, s)
	}
}

func TestF(t *testing.T) {
	if F(1.500, 2) != "1.5" {
		t.Fatalf("F(1.5) = %q", F(1.500, 2))
	}
	if F(2.0, 2) != "2" {
		t.Fatalf("F(2.0) = %q", F(2.0, 2))
	}
}

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.X) != 2 || s.Y[1] != 4 {
		t.Fatalf("Series = %+v", s)
	}
}

func TestPercentileP999(t *testing.T) {
	// 10,000 samples 1..10000: p99.9 interpolates near the top of the tail.
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := Percentile(xs, 99.9)
	if got < 9990 || got > 9991 {
		t.Fatalf("p99.9 = %v, want ~9990", got)
	}
	// Small samples saturate at the max rather than extrapolating.
	if got := Percentile([]float64{1, 2, 3}, 99.9); got < 2.99 || got > 3 {
		t.Fatalf("p99.9 of 3 samples = %v, want ~3", got)
	}
}
