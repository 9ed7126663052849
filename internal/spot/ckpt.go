package spot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fastrl/internal/draft"
	"fastrl/internal/model"
)

// CkptMode selects the checkpointing strategy (paper Fig. 17(a)).
type CkptMode int

const (
	// SyncFull blocks while writing the full model state (vanilla).
	SyncFull CkptMode = iota
	// AsyncFull stages the full state to host memory, writing in a
	// background thread; blocking time is the staging copy.
	AsyncFull
	// SelectiveAsync stages and writes only the trainable parameters
	// (the drafter's single decoder layer), filtering the frozen
	// embedding and LM head — the paper's design (9.2x faster).
	SelectiveAsync
)

func (m CkptMode) String() string {
	switch m {
	case SyncFull:
		return "sync-full"
	case AsyncFull:
		return "async-full"
	case SelectiveAsync:
		return "selective-async"
	}
	return fmt.Sprintf("ckpt(%d)", int(m))
}

// Bandwidth defaults for modelled latency at full model scale.
const (
	// diskBWGBs is NVMe write bandwidth.
	diskBWGBs = 2.0
	// stageBWGBs is device-to-host staging bandwidth.
	stageBWGBs = 20.0
)

// Checkpointer persists drafter training state. Real bytes are written
// for the (small) simulated drafter; blocking latency is additionally
// modelled from the full-scale byte volumes so Fig. 17(a)'s ratios can be
// reproduced.
type Checkpointer struct {
	Dir  string
	Mode CkptMode
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
	seq  int
}

// NewCheckpointer creates a checkpointer writing into dir.
func NewCheckpointer(dir string, mode CkptMode) *Checkpointer {
	return &Checkpointer{Dir: dir, Mode: mode}
}

// SaveStats reports one checkpoint.
type SaveStats struct {
	// Path of the written checkpoint file.
	Path string
	// SavedBytes is the real byte volume written.
	SavedBytes int64
	// ModeledBytes is the full-scale byte volume the save represents
	// (trainable only under SelectiveAsync; trainable + frozen
	// otherwise).
	ModeledBytes int64
	// Blocking is the modelled time the trainer stalls: disk write for
	// SyncFull, host staging copy for the async modes.
	Blocking time.Duration
}

// Save checkpoints the drafter. frozenBytes is the full-scale size of the
// frozen layers (embedding + LM head) that SelectiveAsync filters out;
// trainableBytes the full-scale size of the trainable decoder layer.
func (c *Checkpointer) Save(e *draft.Eagle, trainableBytes, frozenBytes int64) (SaveStats, error) {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	stats := SaveStats{
		Path: filepath.Join(c.Dir, fmt.Sprintf("drafter-%05d.ckpt", seq)),
	}
	switch c.Mode {
	case SelectiveAsync:
		stats.ModeledBytes = trainableBytes
	default:
		stats.ModeledBytes = trainableBytes + frozenBytes
	}

	// Snapshot the trainable weights (consistent view for the background
	// writer; the staging copy every mode pays).
	snap := e.Table().Clone()
	version := e.Version

	write := func() error {
		return writeTable(stats.Path, snap, version)
	}
	switch c.Mode {
	case SyncFull:
		if err := write(); err != nil {
			return stats, err
		}
		stats.Blocking = bytesToDur(stats.ModeledBytes, diskBWGBs)
	case AsyncFull, SelectiveAsync:
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := write(); err != nil {
				c.mu.Lock()
				c.errs = append(c.errs, err)
				c.mu.Unlock()
			}
		}()
		stats.Blocking = bytesToDur(stats.ModeledBytes, stageBWGBs)
	}
	stats.SavedBytes = int64(len(snap.Weights())) * 4
	return stats, nil
}

// Wait drains background writes and returns the first write error, if any.
func (c *Checkpointer) Wait() error {
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) > 0 {
		return c.errs[0]
	}
	return nil
}

// Load restores drafter weights from a checkpoint file, returning the
// saved version counter.
func Load(path string, into *draft.Eagle) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [3]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return 0, fmt.Errorf("spot: reading header: %w", err)
	}
	rows, vocab, version := int(hdr[0]), int(hdr[1]), int(hdr[2])
	tb := into.Table()
	if rows != tb.Rows || vocab != tb.Vocab {
		return 0, fmt.Errorf("spot: checkpoint shape %dx%d does not match drafter %dx%d",
			rows, vocab, tb.Rows, tb.Vocab)
	}
	if err := binary.Read(r, binary.LittleEndian, tb.Weights()); err != nil {
		return 0, fmt.Errorf("spot: reading weights: %w", err)
	}
	into.Version = version
	return version, nil
}

func writeTable(path string, t *model.Table, version int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := [3]int64{int64(t.Rows), int64(t.Vocab), int64(version)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		f.Close()
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, t.Weights()); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func bytesToDur(b int64, gbps float64) time.Duration {
	return time.Duration(float64(b) / (gbps * 1e9) * float64(time.Second))
}

// ModeledLatencies returns the Fig. 17(a) comparison for a drafter of the
// given full-scale sizes: blocking checkpoint latency under each mode.
func ModeledLatencies(trainableBytes, frozenBytes int64) map[CkptMode]time.Duration {
	return map[CkptMode]time.Duration{
		SyncFull:       bytesToDur(trainableBytes+frozenBytes, diskBWGBs),
		AsyncFull:      bytesToDur(trainableBytes+frozenBytes, stageBWGBs),
		SelectiveAsync: bytesToDur(trainableBytes, stageBWGBs),
	}
}
