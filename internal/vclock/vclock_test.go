package vclock

import (
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock should start at 0, got %v", c.Now())
	}
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance returned %v", got)
	}
	if got := c.Advance(-time.Second); got != 5*time.Millisecond {
		t.Fatalf("negative advance moved the clock: %v", got)
	}
	c.AdvanceTo(3 * time.Millisecond) // earlier than now: no-op
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("AdvanceTo moved the clock backwards: %v", c.Now())
	}
	c.AdvanceTo(8 * time.Millisecond)
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("AdvanceTo failed: %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset failed: %v", c.Now())
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Now(); got != 8*1000*time.Microsecond {
		t.Fatalf("concurrent advances lost updates: %v", got)
	}
}
