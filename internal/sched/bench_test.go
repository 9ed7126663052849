package sched

import (
	"testing"
)

// benchStep runs the steady-state iteration benchmark at a fixed
// workload: every op rewinds each sequence to its post-warm-up length so
// per-op cost does not drift with b.N (tokens and KV otherwise grow every
// iteration).
func benchStep(b *testing.B, n int, sd bool) {
	env := newEnv(b)
	batch, reqs, rng := steadyBatch(b, env, n, sd)
	warmLen := make([]int, len(reqs))
	for i, r := range reqs {
		warmLen[i] = len(r.Tokens)
	}
	rewind := func() {
		for j, r := range reqs {
			r.Tokens = r.Tokens[:warmLen[j]]
			r.AcceptLens = r.AcceptLens[:0]
		}
	}
	// Scratch high-water marks ratchet up over the first rounds as draft
	// trees vary in shape; warm past the ratchet so short runs measure
	// true steady state (0 allocs/op) rather than residual growth.
	for i := 0; i < 50; i++ {
		rewind()
		batch.Step(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewind()
		batch.Step(rng)
	}
}

// BenchmarkBatchStep is the canonical continuous-batching iteration: 8
// inflight sequences advanced one speculation round by the scheduler
// through one specdec.StepBatch call. It is pinned in the same-runner A/B
// gate (cmd/benchdiff/ab.sh).
func BenchmarkBatchStep(b *testing.B) { benchStep(b, 8, true) }

// BenchmarkBatchStepSolo is the 1-sequence case, isolating per-iteration
// scheduler overhead from batching gains.
func BenchmarkBatchStepSolo(b *testing.B) { benchStep(b, 1, true) }

// BenchmarkBatchStep16 and BenchmarkBatchStep64 scale the canonical
// iteration to wider co-batching windows. With the occupancy-bitmap slot
// table the scheduler's per-request step cost must stay flat as the
// window grows (batch-step-64 within 15% of batch-step-8 per request) —
// the property that justifies the serving layer's wider MaxBatch
// default. Both are pinned in the A/B gate alongside BenchmarkBatchStep.
func BenchmarkBatchStep16(b *testing.B) { benchStep(b, 16, true) }

func BenchmarkBatchStep64(b *testing.B) { benchStep(b, 64, true) }

// BenchmarkBatchStepVanilla measures the batched non-speculative decode
// iteration.
func BenchmarkBatchStepVanilla(b *testing.B) { benchStep(b, 8, false) }
