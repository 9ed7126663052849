package spot

import (
	"math/rand"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
)

const (
	// packCapacity is the packed-row token capacity.
	packCapacity = 1024
	// rowsPerBatch is how many packed rows one optimiser step consumes.
	rowsPerBatch = 4
)

// WindowStats summarises one spot-training window.
type WindowStats struct {
	// Batches is the number of optimiser steps taken.
	Batches int
	// Sequences / Examples consumed.
	Sequences int
	Examples  int
	// RealTokens and PadTokens processed (packing efficiency).
	RealTokens int
	PadTokens  int
	// Used is the virtual time consumed (<= the window budget).
	Used time.Duration
	// Preempted reports whether the window ended on budget exhaustion
	// with work remaining.
	Preempted bool
}

// Trainer runs preemptible drafter training windows over the DataBuffer.
// It holds no target model: the drafter learns from the distributions the
// harvest stored in each example, so training never reads the target and
// the policy update can write it meanwhile. With no target, Train does not
// unroll, which TLT's drafter (EagleDefault, one step) never does anyway.
type Trainer struct {
	// Device executes the (virtual) training steps.
	Device  *gpu.Device
	Drafter *draft.Eagle
	Buffer  *DataBuffer

	// Totals across windows.
	TotalBatches int
	TotalTime    time.Duration
}

// NewTrainer wires a spot trainer.
func NewTrainer(dev *gpu.Device, drafter *draft.Eagle, buffer *DataBuffer) *Trainer {
	return &Trainer{Device: dev, Drafter: drafter, Buffer: buffer}
}

// RunWindow trains until the virtual budget is exhausted or the buffer
// runs dry. The budget is the preemption boundary: the coordinator grants
// a window sized by the observed rollout tail, and the trainer must fit
// inside it (plus at most one in-flight batch).
func (t *Trainer) RunWindow(budget time.Duration, rng *rand.Rand) WindowStats {
	var stats WindowStats
	// One lens and one examples buffer serve every batch of the window:
	// Train does not retain the slice, and a batch holds about a token
	// budget's worth of examples.
	var lens []int
	examples := make([]*draft.Example, 0, packCapacity*rowsPerBatch)
	for stats.Used < budget {
		batch := t.Buffer.SampleBatch(packCapacity*rowsPerBatch, rng)
		if len(batch) == 0 {
			break
		}
		lens, examples = lens[:0], examples[:0]
		for _, s := range batch {
			lens = append(lens, s.Len())
			examples = append(examples, s.Examples...)
		}

		// Account the batch's GPU cost: packed rows process only real
		// tokens plus each row's unfilled tail.
		_, ps := Pack(lens, packCapacity)
		stats.RealTokens += ps.RealTokens
		stats.PadTokens += ps.PadTokens
		cost := t.Device.TrainStepCost(t.Drafter.Arch(), ps.RealTokens+ps.PadTokens)
		if stats.Used+cost > budget && stats.Batches > 0 {
			// Preempted: the next batch does not fit.
			stats.Preempted = true
			break
		}

		t.Drafter.Train(examples, nil, rng)
		stats.Batches++
		stats.Sequences += len(batch)
		stats.Examples += len(examples)
		stats.Used += cost
	}
	t.TotalBatches += stats.Batches
	t.TotalTime += stats.Used
	return stats
}
