package profileio

import (
	"strings"
	"testing"
	"time"

	"fastrl/internal/sched"
	"fastrl/internal/specdec"
)

func sampleProfile() []sched.StepProfile {
	return []sched.StepProfile{
		{End: 10 * time.Millisecond, Running: 8, Mode: sched.ModeVanilla, TokensOut: 8},
		{End: 20 * time.Millisecond, Running: 6, Mode: sched.ModeVanilla, TokensOut: 6},
		{End: 30 * time.Millisecond, Running: 3, Mode: sched.ModeSD,
			Strategy: specdec.Params{DraftDepth: 4, TopK: 3, TokensToVerify: 8}, TokensOut: 9},
		{End: 40 * time.Millisecond, Running: 1, Mode: sched.ModeSD,
			Strategy: specdec.Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}, TokensOut: 4},
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected header + 4 rows, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_seconds,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[3], "sd") || !strings.Contains(lines[3], ",8,") {
		t.Fatalf("bad SD row: %s", lines[3])
	}
}

func TestRenderRunning(t *testing.T) {
	out := RenderRunning(sampleProfile(), 40, 6)
	if out == "" {
		t.Fatal("empty render")
	}
	if !strings.Contains(out, "#") {
		t.Fatal("SD region not marked")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("vanilla region not marked")
	}
	// Degenerate inputs render empty, not panic.
	if RenderRunning(nil, 40, 6) != "" {
		t.Fatal("nil profile should render empty")
	}
	if RenderRunning(sampleProfile(), 1, 1) != "" {
		t.Fatal("tiny canvas should render empty")
	}
}
