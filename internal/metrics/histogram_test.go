package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistogramBucketLayout pins the bucket geometry: indices are monotone
// and continuous over the value range, and every value lands inside its
// bucket's [low, low+width) span.
func TestHistogramBucketLayout(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 100,
		1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64 / 2, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		low, w := bucketLow(i), bucketWidth(i)
		if v < low || (w > 0 && low+w > low && v >= low+w) {
			t.Fatalf("value %d outside bucket %d span [%d, %d)", v, i, low, low+w)
		}
		prev = i
	}
	// Continuity: consecutive buckets tile the line without gaps.
	for i := 0; i < 200; i++ {
		if got := bucketLow(i) + bucketWidth(i); got != bucketLow(i+1) {
			t.Fatalf("bucket %d ends at %d, bucket %d starts at %d", i, got, i+1, bucketLow(i+1))
		}
		if idx := bucketIndex(bucketLow(i)); idx != i {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, idx)
		}
	}
}

// TestHistogramMergeDeterminism feeds one stream of records into (a) a
// single histogram, (b) shards merged in order, and (c) shards merged in
// reversed and shuffled orders. All four must be bit-identical — the
// property that makes cluster-over-shard percentiles honest.
func TestHistogramMergeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type rec struct{ v, ex int64 }
	recs := make([]rec, 5000)
	for i := range recs {
		recs[i] = rec{v: int64(rng.ExpFloat64() * 5e6), ex: int64(rng.Intn(800))}
	}

	whole := NewHistogram()
	shards := make([]*Histogram, 7)
	for i := range shards {
		shards[i] = NewHistogram()
	}
	for i, r := range recs {
		whole.Record(r.v, r.ex)
		shards[i%len(shards)].Record(r.v, r.ex)
	}

	merge := func(order []int) *Histogram {
		out := NewHistogram()
		for _, i := range order {
			out.Merge(shards[i])
		}
		return out
	}
	fwd := []int{0, 1, 2, 3, 4, 5, 6}
	rev := []int{6, 5, 4, 3, 2, 1, 0}
	shuf := []int{3, 0, 6, 1, 5, 2, 4}
	a, b, c := merge(fwd), merge(rev), merge(shuf)

	want := whole.Checksum()
	for name, h := range map[string]*Histogram{"forward": a, "reversed": b, "shuffled": c} {
		if h.Checksum() != want {
			t.Fatalf("%s merge checksum %x != single-stream %x", name, h.Checksum(), want)
		}
		if h.N() != whole.N() || h.Sum() != whole.Sum() || h.Min() != whole.Min() || h.Max() != whole.Max() {
			t.Fatalf("%s merge moments diverge", name)
		}
		for _, p := range []float64{0, 50, 95, 99.9, 100} {
			if h.Quantile(p) != whole.Quantile(p) {
				t.Fatalf("%s merge p%v = %d, single-stream %d", name, p, h.Quantile(p), whole.Quantile(p))
			}
		}
	}
	// Record-order permutation on a single histogram too.
	perm := NewHistogram()
	for _, i := range rng.Perm(len(recs)) {
		perm.Record(recs[i].v, recs[i].ex)
	}
	if perm.Checksum() != want {
		t.Fatalf("record-order permutation changed checksum")
	}
}

// TestHistogramExemplarBounds pins exemplar retention: at most
// HistExemplars distinct IDs per bucket, and exactly the largest ones
// regardless of insertion order.
func TestHistogramExemplarBounds(t *testing.T) {
	h := NewHistogram()
	// 20 distinct IDs into one bucket (value 100), shuffled.
	ids := rand.New(rand.NewSource(7)).Perm(20)
	for _, id := range ids {
		h.Record(100, int64(id))
	}
	got := h.ExemplarsAt(50)
	if len(got) != HistExemplars {
		t.Fatalf("retained %d exemplars, want %d", len(got), HistExemplars)
	}
	for i, want := range []int64{19, 18, 17, 16} {
		if got[i] != want {
			t.Fatalf("exemplars = %v, want largest-first 19,18,17,16", got)
		}
	}
	// Duplicates of one ID must not crowd out others.
	h2 := NewHistogram()
	for i := 0; i < 10; i++ {
		h2.Record(100, 5)
	}
	h2.Record(100, 3)
	ex := h2.ExemplarsAt(50)
	sort.Slice(ex, func(i, j int) bool { return ex[i] < ex[j] })
	if len(ex) != 2 || ex[0] != 3 || ex[1] != 5 {
		t.Fatalf("duplicate IDs crowded the bucket: %v", ex)
	}
	// Negative exemplar = no exemplar.
	h3 := NewHistogram()
	h3.Record(100, -1)
	if len(h3.ExemplarsAt(50)) != 0 {
		t.Fatal("negative exemplar was retained")
	}
}

// TestHistogramRecordZeroAlloc pins the hot path: Record must not
// allocate, ever — serving replicas call it per retired request under a
// lock.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := NewHistogram()
	var v int64
	if avg := testing.AllocsPerRun(1000, func() {
		h.Record(v, v%64)
		v += 997
	}); avg != 0 {
		t.Fatalf("Record allocates %v allocs/op, want 0", avg)
	}
	src := NewHistogram()
	src.Record(123, 1)
	if avg := testing.AllocsPerRun(100, func() { h.Merge(src) }); avg != 0 {
		t.Fatalf("Merge allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkHistogramRecord measures the exemplar-linked Record that every
// served request crosses: the log-bucket index plus the bounded exemplar
// update, over values spread across thirty octaves.
func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = 1 + int64(rng.Intn(1<<30))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vals[i&1023]
		h.Record(v, v)
	}
}

// TestHistogramQuantileAccuracy checks the advertised bound: quantiles
// are within one sub-bucket width (12.5% relative) of the exact
// percentile on known distributions.
func TestHistogramQuantileAccuracy(t *testing.T) {
	for name, gen := range map[string]func(*rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return r.Float64() * 10e6 },
		"exp":       func(r *rand.Rand) float64 { return r.ExpFloat64() * 3e6 },
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*1.2 + 14) },
	} {
		rng := rand.New(rand.NewSource(99))
		h := NewHistogram()
		exact := make([]float64, 20000)
		for i := range exact {
			v := gen(rng)
			exact[i] = float64(int64(v))
			h.Record(int64(v), -1)
		}
		for _, p := range []float64{50, 90, 95, 99, 99.9} {
			want := Percentile(exact, p)
			got := float64(h.Quantile(p))
			if want <= 0 {
				continue
			}
			if relErr := math.Abs(got-want) / want; relErr > 1.0/histSubCount {
				t.Errorf("%s p%v: histogram %.0f vs exact %.0f (rel err %.3f > %.3f)",
					name, p, got, want, relErr, 1.0/histSubCount)
			}
		}
	}
}

// TestHistogramEdgeCases covers nil receivers, empty histograms, clamping,
// and the duration helper.
func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.N() != 0 || nilH.Quantile(50) != 0 || nilH.Stats().N != 0 || nilH.Clone() != nil {
		t.Fatal("nil histogram not inert")
	}
	empty := NewHistogram()
	if empty.Quantile(99) != 0 || len(empty.ExemplarsAt(99)) != 0 {
		t.Fatal("empty histogram not inert")
	}
	h := NewHistogram()
	h.Record(-5, 1) // clamps to 0
	h.RecordDuration(3*time.Millisecond, 2)
	if h.Min() != 0 || h.Max() != int64(3*time.Millisecond) || h.N() != 2 {
		t.Fatalf("min/max/n = %d/%d/%d", h.Min(), h.Max(), h.N())
	}
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 = %d", got)
	}
	if got := h.Quantile(100); got != int64(3*time.Millisecond) {
		t.Fatalf("p100 = %d", got)
	}
	// Quantile interpolation clamps into [min, max]: a single sample's
	// every quantile is that sample.
	one := NewHistogram()
	one.Record(1_000_000, 7)
	for _, p := range []float64{1, 50, 99.9} {
		if one.Quantile(p) != 1_000_000 {
			t.Fatalf("single-sample p%v = %d", p, one.Quantile(p))
		}
	}
	st := one.Stats()
	if st.N != 1 || st.P999 != 1_000_000 || len(st.TailExemplars) != 1 || st.TailExemplars[0] != 7 {
		t.Fatalf("stats = %+v", st)
	}
	// Clone independence.
	cl := one.Clone()
	cl.Record(2_000_000, 8)
	if one.N() != 1 || cl.N() != 2 {
		t.Fatal("clone aliases parent")
	}
	// Merge into empty adopts source moments.
	dst := NewHistogram()
	dst.Merge(one)
	if dst.Min() != 1_000_000 || dst.Max() != 1_000_000 || dst.N() != 1 {
		t.Fatalf("merge-into-empty moments: min=%d max=%d n=%d", dst.Min(), dst.Max(), dst.N())
	}
	dst.Merge(nil)
	dst.Merge(NewHistogram())
	if dst.N() != 1 {
		t.Fatal("nil/empty merge mutated histogram")
	}
}
