package spot

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
	"fastrl/internal/tokenizer"
)

func makeSeq(n int) Sequence {
	exs := make([]*draft.Example, n)
	for i := range exs {
		exs[i] = &draft.Example{SeqLen: n}
	}
	return Sequence{Examples: exs}
}

func TestDataBufferRotation(t *testing.T) {
	b := NewDataBuffer(100)
	b.Add(makeSeq(5))
	b.Add(makeSeq(50))
	cur, prev := b.Sizes()
	if cur != 2 || prev != 0 {
		t.Fatalf("sizes %d/%d", cur, prev)
	}
	b.StepEnd()
	cur, prev = b.Sizes()
	if cur != 0 || prev != 2 {
		t.Fatalf("after rotation: %d/%d", cur, prev)
	}
	// Empty sequences ignored.
	b.Add(Sequence{})
	if c, _ := b.Sizes(); c != 0 {
		t.Fatal("empty sequence stored")
	}
}

func TestDataBufferCapacityEviction(t *testing.T) {
	b := NewDataBuffer(3)
	for i := 0; i < 10; i++ {
		b.Add(makeSeq(i + 1))
	}
	cur, _ := b.Sizes()
	if cur != 3 {
		t.Fatalf("capacity not enforced: %d", cur)
	}
}

func TestOneStepOffSampling(t *testing.T) {
	// The headline DataBuffer property: batches mixing the current
	// partial (short) responses with previous-step long responses have a
	// longer mean sequence length than current-only sampling.
	rng := rand.New(rand.NewSource(1))

	mixed := NewDataBuffer(1000)
	currentOnly := NewDataBuffer(1000)
	currentOnly.LongFrac = 0

	// Previous step: full length distribution including the long tail.
	for i := 0; i < 200; i++ {
		l := 10 + rng.Intn(20)
		if i%20 == 0 {
			l = 400 + rng.Intn(200) // long tail
		}
		mixed.Add(makeSeq(l))
		currentOnly.Add(makeSeq(l))
	}
	mixed.StepEnd()
	currentOnly.StepEnd()
	// Current step: only early finishes (short) so far.
	for i := 0; i < 100; i++ {
		l := 10 + rng.Intn(20)
		mixed.Add(makeSeq(l))
		currentOnly.Add(makeSeq(l))
	}

	mMixed := mixed.MeanSampledLen(20000, rand.New(rand.NewSource(2)))
	mCur := currentOnly.MeanSampledLen(20000, rand.New(rand.NewSource(2)))
	if mMixed <= mCur*1.2 {
		t.Fatalf("one-step-off sampling should lengthen batches: mixed %.1f vs current-only %.1f", mMixed, mCur)
	}
	t.Logf("mean sampled len: mixed %.1f, current-only %.1f", mMixed, mCur)
}

func TestSampleBatchFallbacks(t *testing.T) {
	b := NewDataBuffer(10)
	if got := b.SampleBatch(100, rand.New(rand.NewSource(1))); got != nil {
		t.Fatal("empty buffer should return nil")
	}
	// Only previous.
	b.Add(makeSeq(5))
	b.StepEnd()
	if got := b.SampleBatch(20, rand.New(rand.NewSource(1))); len(got) == 0 {
		t.Fatal("prev-only sampling failed")
	}
	// Only current.
	b2 := NewDataBuffer(10)
	b2.Add(makeSeq(5))
	if got := b2.SampleBatch(20, rand.New(rand.NewSource(1))); len(got) == 0 {
		t.Fatal("cur-only sampling failed")
	}
}

func TestPackFirstFitDecreasing(t *testing.T) {
	rows, stats := Pack([]int{60, 50, 40, 30, 20}, 100)
	if stats.RealTokens != 200 {
		t.Fatalf("real tokens %d", stats.RealTokens)
	}
	// FFD: [60,40] [50,30,20] -> 2 rows, zero pad.
	if stats.Rows != 2 || stats.PadTokens != 0 {
		t.Fatalf("rows=%d pad=%d, want 2 rows 0 pad: %+v", stats.Rows, stats.PadTokens, rows)
	}
	if stats.Efficiency() != 1 {
		t.Fatalf("efficiency %v", stats.Efficiency())
	}
}

func TestPackTruncatesOversized(t *testing.T) {
	rows, stats := Pack([]int{500}, 100)
	if len(rows) != 1 || rows[0].Used != 100 {
		t.Fatalf("oversized sequence not truncated: %+v", rows)
	}
	if stats.PadTokens != 0 {
		t.Fatalf("pad %d", stats.PadTokens)
	}
	// Zero/negative lengths skipped.
	_, stats = Pack([]int{0, -3, 10}, 100)
	if stats.RealTokens != 10 {
		t.Fatalf("real tokens %d", stats.RealTokens)
	}
}

func TestPackBeatsPadding(t *testing.T) {
	// Long-tail lengths: packing should dominate padded batching by ~2x
	// (paper Fig. 17(b): 2.2x throughput).
	rng := rand.New(rand.NewSource(3))
	lens := make([]int, 64)
	for i := range lens {
		lens[i] = 10 + rng.Intn(30)
		if i%8 == 0 {
			lens[i] = 300 + rng.Intn(400)
		}
	}
	_, packed := Pack(lens, 1024)
	padded := PadBatches(lens, 8)
	gain := packed.Efficiency() / padded.Efficiency()
	if gain < 1.5 {
		t.Fatalf("packing gain %.2fx too small (packed %.2f, padded %.2f)",
			gain, packed.Efficiency(), padded.Efficiency())
	}
	t.Logf("packing efficiency %.2f vs padded %.2f (%.1fx)", packed.Efficiency(), padded.Efficiency(), gain)
}

func TestPackProperty(t *testing.T) {
	f := func(raw []uint16, capRaw uint16) bool {
		capacity := int(capRaw%2000) + 1
		lens := make([]int, len(raw))
		total := 0
		for i, r := range raw {
			lens[i] = int(r % 512)
			l := lens[i]
			if l > capacity {
				l = capacity
			}
			if lens[i] > 0 {
				total += l
			}
		}
		rows, stats := Pack(lens, capacity)
		if stats.RealTokens != total {
			return false
		}
		for _, r := range rows {
			if r.Used > r.Capacity || r.Used <= 0 {
				return false
			}
			if r.Pad() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointModes(t *testing.T) {
	dir := t.TempDir()
	tk := tokenizer.New()
	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))

	const trainable, frozen = 500 << 20, 4 << 30
	var blocking [3]time.Duration
	for _, mode := range []CkptMode{SyncFull, AsyncFull, SelectiveAsync} {
		c := NewCheckpointer(dir, mode)
		stats, err := c.Save(e, trainable, frozen)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := c.Wait(); err != nil {
			t.Fatalf("%v: background write: %v", mode, err)
		}
		if stats.SavedBytes == 0 {
			t.Fatalf("%v: nothing written", mode)
		}
		blocking[mode] = stats.Blocking
		// The file must exist and round-trip.
		fresh := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
		if _, err := Load(stats.Path, fresh); err != nil {
			t.Fatalf("%v: load: %v", mode, err)
		}
		if fresh.Table().L2Distance(e.Table()) != 0 {
			t.Fatalf("%v: weights did not round-trip", mode)
		}
	}
	// Fig 17(a) ordering: sync >> async > selective async.
	if !(blocking[SyncFull] > blocking[AsyncFull] && blocking[AsyncFull] > blocking[SelectiveAsync]) {
		t.Fatalf("blocking ordering violated: %v", blocking)
	}
	ratio := blocking[SyncFull].Seconds() / blocking[SelectiveAsync].Seconds()
	if ratio < 5 {
		t.Fatalf("selective async should be >=5x faster than sync, got %.1fx", ratio)
	}
	t.Logf("ckpt blocking: sync=%v async=%v selective=%v (%.1fx)",
		blocking[SyncFull], blocking[AsyncFull], blocking[SelectiveAsync], ratio)
}

func TestCheckpointAsyncSnapshotConsistency(t *testing.T) {
	// Training continuing during a background write must not corrupt the
	// checkpoint: the writer works from a snapshot.
	dir := t.TempDir()
	tk := tokenizer.New()
	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	snapshot := e.Clone()

	c := NewCheckpointer(dir, SelectiveAsync)
	stats, err := c.Save(e, 1<<20, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the live drafter immediately.
	e.Table().Row(1)[0] += 42
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	fresh := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	if _, err := Load(stats.Path, fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Table().L2Distance(snapshot.Table()) != 0 {
		t.Fatal("checkpoint captured post-save mutation")
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	tk := tokenizer.New()
	e := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	c := NewCheckpointer(dir, SyncFull)
	stats, err := c.Save(e, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B)
	small.Buckets = 64
	other := draft.NewEagle(small)
	if _, err := Load(stats.Path, other); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestModeledLatenciesRatio(t *testing.T) {
	// With the paper's ~1/layer_num trainable fraction, selective async
	// should land near the reported 9.2x reduction vs vanilla sync.
	lat := ModeledLatencies(500<<20, 4<<30)
	ratio := lat[SyncFull].Seconds() / lat[SelectiveAsync].Seconds()
	if ratio < 5 || ratio > 200 {
		t.Fatalf("sync/selective ratio %.1f implausible", ratio)
	}
}

func newSpotSetup(t testing.TB) (*Trainer, *model.LM, *tokenizer.Tokenizer) {
	t.Helper()
	tk := tokenizer.New()
	mcfg := model.DefaultConfig(tk.VocabSize(), gpu.Qwen7B)
	mcfg.Buckets = 1 << 10
	var digits []int
	for d := 0; d <= 9; d++ {
		digits = append(digits, tk.Digit(d))
	}
	target := model.New(mcfg, &model.GrammarPrior{AnswerID: tk.Answer(), EosID: tk.Eos(), DigitIDs: digits})
	drafter := draft.NewEagle(draft.EagleDefault(tk.VocabSize(), gpu.Qwen7B))
	tr := NewTrainer(gpu.NewDevice(gpu.H100, 1), drafter, target, NewDataBuffer(500))
	return tr, target, tk
}

func fillBuffer(t testing.TB, tr *Trainer, target *model.LM, tk *tokenizer.Tokenizer, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		prompt := []int{tk.Bos(), tk.Digit(rng.Intn(10)), tk.MustID("+"), tk.Digit(rng.Intn(10)), tk.MustID("=")}
		seq := model.Generate(target, prompt, nil, 1, 50, tk.Eos(), rng)
		exs := draft.HarvestExamples(target, model.Context{Tokens: seq, PromptLen: len(prompt)}, true)
		tr.Buffer.Add(Sequence{Examples: exs})
	}
}

func TestRunWindowTrainsWithinBudget(t *testing.T) {
	tr, target, tk := newSpotSetup(t)
	fillBuffer(t, tr, target, tk, 60, 5)
	rng := rand.New(rand.NewSource(6))

	budget := 300 * time.Millisecond
	stats := tr.RunWindow(budget, rng)
	if stats.Batches == 0 {
		t.Fatal("no training happened")
	}
	if stats.Used > budget+budget/2 {
		t.Fatalf("window overran budget: used %v of %v", stats.Used, budget)
	}
	if tr.Drafter.Version == 0 {
		t.Fatal("drafter version not advanced")
	}
	if stats.Examples == 0 || stats.Sequences == 0 {
		t.Fatalf("consumption not accounted: %+v", stats)
	}
}

func TestRunWindowPreemption(t *testing.T) {
	tr, target, tk := newSpotSetup(t)
	fillBuffer(t, tr, target, tk, 60, 7)
	rng := rand.New(rand.NewSource(8))
	// A tight budget fits some batches but not all: the window must
	// report preemption and stop in time.
	one := tr.Device.TrainStepCost(tr.Drafter.Arch(), packCapacity*rowsPerBatch)
	stats := tr.RunWindow(3*one, rng)
	if !stats.Preempted {
		t.Fatalf("expected preemption: %+v", stats)
	}
	if stats.Batches < 1 {
		t.Fatal("no batch fit the budget")
	}
}

func TestRunWindowEmptyBuffer(t *testing.T) {
	tr, _, _ := newSpotSetup(t)
	stats := tr.RunWindow(time.Second, rand.New(rand.NewSource(1)))
	if stats.Batches != 0 || stats.Used != 0 {
		t.Fatalf("empty buffer should be a no-op: %+v", stats)
	}
}

func TestRunWindowImprovesDrafter(t *testing.T) {
	tr, target, tk := newSpotSetup(t)
	fillBuffer(t, tr, target, tk, 80, 9)
	rng := rand.New(rand.NewSource(10))

	// Held-out evaluation set.
	var test []*draft.Example
	evalRng := rand.New(rand.NewSource(11))
	for i := 0; i < 15; i++ {
		prompt := []int{tk.Bos(), tk.Digit(evalRng.Intn(10)), tk.MustID("+"), tk.Digit(evalRng.Intn(10)), tk.MustID("=")}
		seq := model.Generate(target, prompt, nil, 1, 50, tk.Eos(), evalRng)
		test = append(test, draft.HarvestExamples(target, model.Context{Tokens: seq, PromptLen: len(prompt)}, true)...)
	}
	before := tr.Drafter.TopKAccuracy(test, 3)
	tr.RunWindow(time.Second, rng)
	after := tr.Drafter.TopKAccuracy(test, 3)
	if after <= before {
		t.Fatalf("spot training did not improve drafter: %.3f -> %.3f", before, after)
	}
	t.Logf("drafter top-3: %.3f -> %.3f (%d batches)", before, after, tr.TotalBatches)
}
