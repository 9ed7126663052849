// Package profileio exports and renders rollout running-request profiles
// (sched.StepProfile records): CSV for plotting, ASCII charts for
// terminals. It backs cmd/tltprofile.
package profileio

import (
	"fmt"
	"io"
	"strings"

	"fastrl/internal/sched"
)

// WriteCSV emits one row per engine iteration.
func WriteCSV(w io.Writer, profile []sched.StepProfile) error {
	if _, err := fmt.Fprintln(w, "t_seconds,running,mode,depth,topk,verify,tokens_out"); err != nil {
		return err
	}
	for _, p := range profile {
		if _, err := fmt.Fprintf(w, "%.6f,%d,%s,%d,%d,%d,%d\n",
			p.End.Seconds(), p.Running, p.Mode, p.Strategy.DraftDepth,
			p.Strategy.TopK, p.Strategy.TokensToVerify, p.TokensOut); err != nil {
			return err
		}
	}
	return nil
}

// RenderRunning draws an ASCII chart of the running-request count over
// time (the Fig. 14 profile): one column per time bucket, height rows.
func RenderRunning(profile []sched.StepProfile, width, height int) string {
	if len(profile) == 0 || width < 2 || height < 2 {
		return ""
	}
	end := profile[len(profile)-1].End
	if end <= 0 {
		return ""
	}
	maxRun := 0
	for _, p := range profile {
		if p.Running > maxRun {
			maxRun = p.Running
		}
	}
	if maxRun == 0 {
		return ""
	}
	// Bucket the profile by time; record max running and SD presence.
	buckets := make([]int, width)
	sd := make([]bool, width)
	for _, p := range profile {
		b := int(float64(p.End) / float64(end) * float64(width-1))
		if p.Running > buckets[b] {
			buckets[b] = p.Running
		}
		if p.Mode == sched.ModeSD {
			sd[b] = true
		}
	}
	// Carry values forward through empty buckets.
	for b := 1; b < width; b++ {
		if buckets[b] == 0 {
			buckets[b] = buckets[b-1]
			sd[b] = sd[b-1]
		}
	}
	var sb strings.Builder
	for row := height; row >= 1; row-- {
		thresh := float64(row) / float64(height) * float64(maxRun)
		fmt.Fprintf(&sb, "%4d |", int(thresh))
		for b := 0; b < width; b++ {
			switch {
			case float64(buckets[b]) >= thresh && sd[b]:
				sb.WriteByte('#') // SD-mode region
			case float64(buckets[b]) >= thresh:
				sb.WriteByte('*') // vanilla region
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("     +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&sb, "      0%*s\n", width, fmt.Sprintf("%.2fs", end.Seconds()))
	sb.WriteString("      running requests over time ('#' = speculative decoding active)\n")
	return sb.String()
}
