package spot

import (
	"math/rand"
	"testing"
)

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lens := make([]int, 512)
	for i := range lens {
		lens[i] = 8 + rng.Intn(400)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pack(lens, 1024)
	}
}

func BenchmarkSampleBatch(b *testing.B) {
	buf := NewDataBuffer(4096)
	for i := 0; i < 1000; i++ {
		buf.Add(makeSeq(10 + i%300))
	}
	buf.StepEnd()
	for i := 0; i < 500; i++ {
		buf.Add(makeSeq(10 + i%40))
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.SampleBatch(4096, rng)
	}
}

// BenchmarkRunWindow times one spot-training window of a few batches over
// the previous step's sequences, as the RL step's spot goroutine runs it.
// Every op starts from the same rng seed; the drafter keeps training
// across ops, which leaves the work per batch unchanged.
func BenchmarkRunWindow(b *testing.B) {
	tr, target, tk := newSpotSetup(b)
	fillBuffer(b, tr, target, tk, 60, 5)
	tr.Buffer.StepEnd()
	budget := 3 * tr.Device.TrainStepCost(tr.Drafter.Arch(), packCapacity*rowsPerBatch)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(1)
		tr.RunWindow(budget, rng)
	}
}

func BenchmarkCheckpointSave(b *testing.B) {
	dir := b.TempDir()
	tr, _, _ := newSpotSetup(b)
	c := NewCheckpointer(dir, SelectiveAsync)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Save(tr.Drafter, 1<<20, 1<<28); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := c.Wait(); err != nil {
		b.Fatal(err)
	}
}
