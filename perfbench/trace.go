package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// microseconds since the process started; Parent is the index of the
// enclosing span in the same file (-1 for a root); ID is the request or
// RL step the call belongs to.
type span struct {
	Name    string  `json:"name"`
	ID      int64   `json:"id"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer records the traced run's spans and CPU profiles. The timed phase
// alternates traced and untraced windows (see window), so the cost of
// tracing is measured against interleaved untraced work instead of a
// separate run that host drift would move.
type tracer struct {
	mu    sync.Mutex
	spans []span

	on       atomic.Bool
	profBuf  bytes.Buffer
	profiles [][]byte

	// Window accounting, owned by the goroutine that calls window.
	winStart time.Time
	winTok   int64
	tok      [2]int64 // tokens delivered in [untraced, traced] windows
	dur      [2]time.Duration
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<14)} }

func usSince(t time.Time) float64 { return float64(t.Sub(processStart).Nanoseconds()) / 1e3 }

// record appends a finished span and returns its index for children's
// parent. It is safe for concurrent use; a nil tracer records nothing and
// returns -1.
func (t *tracer) record(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartUs: usSince(start), EndUs: usSince(end)})
	return len(t.spans) - 1
}

// active reports whether the current window is traced (false on nil).
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// window closes the current window, crediting it with the tokens
// delivered since the previous call (tokensSoFar is the phase's running
// total), and opens the next one, traced or not.
func (t *tracer) window(traced bool, tokensSoFar int64) error {
	now := time.Now()
	if !t.winStart.IsZero() {
		t.closeWindow(now, tokensSoFar)
	}
	t.winStart, t.winTok = now, tokensSoFar
	if !traced {
		return nil
	}
	t.profBuf.Reset()
	if err := pprof.StartCPUProfile(&t.profBuf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.on.Store(true)
	return nil
}

// finish closes the last window.
func (t *tracer) finish(tokensSoFar int64) {
	t.closeWindow(time.Now(), tokensSoFar)
	t.winStart = time.Time{}
}

func (t *tracer) closeWindow(now time.Time, tokensSoFar int64) {
	idx := 0
	if t.on.Load() {
		idx = 1
		t.on.Store(false)
		pprof.StopCPUProfile()
		t.profiles = append(t.profiles, append([]byte(nil), t.profBuf.Bytes()...))
	}
	t.tok[idx] += tokensSoFar - t.winTok
	t.dur[idx] += now.Sub(t.winStart)
}

// overhead returns 1 − traced/untraced host token rate.
func (t *tracer) overhead() float64 {
	un := ratio(float64(t.tok[0]), t.dur[0].Seconds())
	tr := ratio(float64(t.tok[1]), t.dur[1].Seconds())
	if un == 0 {
		return 0
	}
	return 1 - tr/un
}

// modules folds every traced window's CPU profile by module.
func (t *tracer) modules() (*moduleCPU, error) {
	m := newModuleCPU()
	for _, p := range t.profiles {
		if err := m.add(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// writeSpans writes the span log as JSON and returns the file path.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
