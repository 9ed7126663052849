// Package histfuzz_test fuzzes metrics.Histogram. It is a package of its
// own because a fuzz target links Go's fuzzing engine into its test
// binary: inside internal/metrics that moved the code of the pinned
// BenchmarkHistogramRecord and slowed it by layout alone.
package histfuzz_test

import (
	"encoding/binary"
	"testing"

	"fastrl/internal/metrics"
)

// histRecord is one decoded fuzz record: a value and its exemplar ID,
// either of which may be negative.
type histRecord struct{ v, ex int64 }

// decodeHistRecords reads a fuzz input as one split byte followed by
// 16-byte little-endian (value, exemplar) records; a trailing partial
// record is dropped. The split byte picks where the records divide into
// two halves, anywhere from all-first to all-second.
func decodeHistRecords(data []byte) (recs []histRecord, split int) {
	if len(data) == 0 {
		return nil, 0
	}
	for b := data[1:]; len(b) >= 16; b = b[16:] {
		recs = append(recs, histRecord{
			v:  int64(binary.LittleEndian.Uint64(b)),
			ex: int64(binary.LittleEndian.Uint64(b[8:])),
		})
	}
	return recs, int(data[0]) % (len(recs) + 1)
}

// FuzzHistogramMerge pins Merge against recording: recording every
// record into one histogram equals recording the two halves separately
// and merging them in either order, or both into an empty histogram.
// Equal means the whole struct (counts, exemplar sets, n, sum, min, max)
// and the Checksum.
func FuzzHistogramMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, split := decodeHistRecords(data)
		record := func(rs []histRecord) *metrics.Histogram {
			h := metrics.NewHistogram()
			for _, r := range rs {
				h.Record(r.v, r.ex)
			}
			return h
		}
		whole, first, second := record(recs), record(recs[:split]), record(recs[split:])
		firstThenSecond := first.Clone()
		firstThenSecond.Merge(second)
		secondThenFirst := second.Clone()
		secondThenFirst.Merge(first)
		intoEmpty := metrics.NewHistogram()
		intoEmpty.Merge(second)
		intoEmpty.Merge(first)
		for name, got := range map[string]*metrics.Histogram{
			"first+second": firstThenSecond, "second+first": secondThenFirst, "empty+second+first": intoEmpty,
		} {
			if *got != *whole {
				t.Fatalf("%s (split %d of %d) differs from recording everything: n/sum/min/max %d/%d/%d/%d, want %d/%d/%d/%d",
					name, split, len(recs), got.N(), got.Sum(), got.Min(), got.Max(), whole.N(), whole.Sum(), whole.Min(), whole.Max())
			}
			if got.Checksum() != whole.Checksum() {
				t.Fatalf("%s checksum %#x, want %#x", name, got.Checksum(), whole.Checksum())
			}
		}
	})
}
