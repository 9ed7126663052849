package spot

import (
	"math/rand"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/gpu"
	"fastrl/internal/model"
)

// TrainerConfig parameterises spot-training windows.
type TrainerConfig struct {
	// Device executes the (virtual) training steps.
	Device *gpu.Device
	// PackCapacity is the packed-row token capacity.
	PackCapacity int
	// RowsPerBatch is how many packed rows one optimiser step consumes.
	RowsPerBatch int
	// CkptEveryBatches triggers a checkpoint after this many batches
	// (frequent checkpointing bounds preemption loss).
	CkptEveryBatches int
	// Packing disables zero-padding packing when false (ablation).
	Packing bool
	// TrainableBytes / FrozenBytes are the full-scale drafter sizes used
	// for checkpoint latency modelling.
	TrainableBytes int64
	FrozenBytes    int64
}

// DefaultTrainerConfig returns spot-trainer settings for a target
// architecture.
func DefaultTrainerConfig(dev *gpu.Device, target gpu.Arch) TrainerConfig {
	d := gpu.DraftArch(target)
	// Trainable = the single decoder layer; frozen = embedding + head.
	layer := 12 * float64(d.HiddenDim) * float64(d.HiddenDim) * d.BytesPer
	frozen := 2 * float64(d.VocabSize) * float64(d.HiddenDim) * d.BytesPer
	return TrainerConfig{
		Device:           dev,
		PackCapacity:     1024,
		RowsPerBatch:     4,
		CkptEveryBatches: 8,
		Packing:          true,
		TrainableBytes:   int64(layer),
		FrozenBytes:      int64(frozen),
	}
}

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
	// CkptCount and CkptBlocking account checkpoint overhead.
	CkptCount    int
	CkptBlocking time.Duration
	// Preempted reports whether the window ended on budget exhaustion
	// with work remaining.
	Preempted bool
}

// Trainer runs preemptible drafter training windows over the DataBuffer.
type Trainer struct {
	Cfg     TrainerConfig
	Drafter *draft.Eagle
	Target  *model.LM
	Buffer  *DataBuffer
	Ckpt    *Checkpointer

	// Totals across windows.
	TotalBatches int
	TotalTime    time.Duration
}

// NewTrainer wires a spot trainer.
func NewTrainer(cfg TrainerConfig, drafter *draft.Eagle, target *model.LM, buffer *DataBuffer, ckpt *Checkpointer) *Trainer {
	if cfg.PackCapacity < 1 {
		cfg.PackCapacity = 1024
	}
	if cfg.RowsPerBatch < 1 {
		cfg.RowsPerBatch = 1
	}
	return &Trainer{Cfg: cfg, Drafter: drafter, Target: target, Buffer: buffer, Ckpt: ckpt}
}

// RunWindow trains until the virtual budget is exhausted or the buffer
// runs dry. The budget is the preemption boundary: the coordinator grants
// a window sized by the observed rollout tail, and the trainer must fit
// inside it (plus at most one in-flight batch).
func (t *Trainer) RunWindow(budget time.Duration, rng *rand.Rand) WindowStats {
	var stats WindowStats
	for stats.Used < budget {
		tokenBudget := t.Cfg.PackCapacity * t.Cfg.RowsPerBatch
		batch := t.Buffer.SampleBatch(tokenBudget, rng)
		if len(batch) == 0 {
			break
		}
		lens := make([]int, len(batch))
		var examples []*draft.Example
		for i, s := range batch {
			lens[i] = s.Len()
			examples = append(examples, s.Examples...)
		}

		// Account the batch's GPU cost: packed rows process only real
		// tokens; padded batching pays for pad slots too.
		var tokens int
		if t.Cfg.Packing {
			_, ps := Pack(lens, t.Cfg.PackCapacity)
			stats.RealTokens += ps.RealTokens
			stats.PadTokens += ps.PadTokens
			tokens = ps.RealTokens + ps.PadTokens
		} else {
			ps := PadBatches(lens, t.Cfg.RowsPerBatch)
			stats.RealTokens += ps.RealTokens
			stats.PadTokens += ps.PadTokens
			tokens = ps.RealTokens + ps.PadTokens
		}
		cost := t.Cfg.Device.TrainStepCost(t.Drafter.Arch(), tokens)
		if stats.Used+cost > budget && stats.Batches > 0 {
			// Preempted: the next batch does not fit.
			stats.Preempted = true
			break
		}

		t.Drafter.Train(examples, t.Target, rng)
		stats.Batches++
		stats.Sequences += len(batch)
		stats.Examples += len(examples)
		stats.Used += cost

		if t.Ckpt != nil && t.Cfg.CkptEveryBatches > 0 && stats.Batches%t.Cfg.CkptEveryBatches == 0 {
			cs, err := t.Ckpt.Save(t.Drafter, t.Cfg.TrainableBytes, t.Cfg.FrozenBytes)
			if err == nil {
				stats.CkptCount++
				stats.CkptBlocking += cs.Blocking
				stats.Used += cs.Blocking
			}
		}
	}
	t.TotalBatches += stats.Batches
	t.TotalTime += stats.Used
	return stats
}
