// Package metrics provides the small statistics toolkit used across the
// simulator: percentiles, histograms, moving windows, and throughput
// accounting.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input. NaN
// samples are ignored (they would otherwise poison the sort order and the
// interpolation); a slice of only NaNs behaves like an empty one. Cold
// per-shard serving stats call this with zero or partial samples, so the
// guards are load-bearing, not defensive.
func Percentile(xs []float64, p float64) float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Max returns the maximum, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative entries are skipped.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Window is a fixed-capacity sliding window of float64 observations — the
// deque used by the BEG-MAB selector's reward history.
type Window struct {
	cap  int
	data []float64
	head int
	full bool
}

// NewWindow creates a window with the given capacity (minimum 1).
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{cap: capacity, data: make([]float64, 0, capacity)}
}

// Push appends an observation, evicting the oldest when full.
func (w *Window) Push(x float64) {
	if len(w.data) < w.cap {
		w.data = append(w.data, x)
		return
	}
	w.data[w.head] = x
	w.head = (w.head + 1) % w.cap
	w.full = true
}

// Len returns the number of stored observations.
func (w *Window) Len() int { return len(w.data) }

// Values returns a copy of the stored observations (order unspecified).
func (w *Window) Values() []float64 { return append([]float64(nil), w.data...) }

// Median returns the median of the stored observations (0 when empty).
func (w *Window) Median() float64 { return Median(w.data) }

// Mean returns the mean of the stored observations (0 when empty).
func (w *Window) Mean() float64 { return Mean(w.data) }

// LinearHistogram is a fixed-bin histogram over [min, max) used for
// figure-style distributions (accepted-length PDFs). Latency percentiles
// use the log-bucket Histogram in histogram.go instead.
type LinearHistogram struct {
	MinV, MaxV float64
	Counts     []int
	N          int
	overflow   int
	underflow  int
}

// NewLinearHistogram creates a histogram with nbins bins spanning [min, max).
func NewLinearHistogram(minV, maxV float64, nbins int) *LinearHistogram {
	if nbins < 1 {
		nbins = 1
	}
	if maxV <= minV {
		maxV = minV + 1
	}
	return &LinearHistogram{MinV: minV, MaxV: maxV, Counts: make([]int, nbins)}
}

// Observe adds one sample.
func (h *LinearHistogram) Observe(x float64) {
	h.N++
	if x < h.MinV {
		h.underflow++
		return
	}
	if x >= h.MaxV {
		h.overflow++
		return
	}
	idx := int((x - h.MinV) / (h.MaxV - h.MinV) * float64(len(h.Counts)))
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
}

// PDF returns per-bin probability mass (fractions of all observations).
func (h *LinearHistogram) PDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.N)
	}
	return out
}

// BinCenter returns the centre value of bin i.
func (h *LinearHistogram) BinCenter(i int) float64 {
	w := (h.MaxV - h.MinV) / float64(len(h.Counts))
	return h.MinV + (float64(i)+0.5)*w
}

// Throughput converts a token count over a virtual duration to tokens/sec.
func Throughput(tokens int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(tokens) / elapsed.Seconds()
}

// Series is a labelled sequence of (x, y) points used by experiment
// runners to print figure data.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table is a simple fixed-column text table for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float with the given precision, trimming to a compact cell.
func F(x float64, prec int) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.*f", prec, x), "0"), ".")
}
