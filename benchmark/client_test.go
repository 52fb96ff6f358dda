package main

import (
	"testing"
	"time"
)

// The open-loop reader must time each request from when it was due, so
// that a stall is charged to every request it delayed.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	loop := openLoop{t0: t0, interval: 20 * time.Millisecond}
	if got := loop.due(0); !got.Equal(t0) {
		t.Errorf("due(0) = %v, want t0", got)
	}
	if got := loop.due(50); !got.Equal(t0.Add(time.Second)) {
		t.Errorf("due(50) = %v, want t0+1s at 50/s", got)
	}
	// Slot 3 is due at t0+60ms; the previous request stalled, so it is
	// only sent at t0+95ms and then takes 4 ms (3 ms to first byte).
	late, ttfb, total := sinceDue(loop.due(3), t0.Add(95*time.Millisecond), 3*time.Millisecond, 4*time.Millisecond)
	if late != 35*time.Millisecond || ttfb != 38*time.Millisecond || total != 39*time.Millisecond {
		t.Errorf("late/ttfb/total = %v/%v/%v, want 35ms/38ms/39ms", late, ttfb, total)
	}
	// On time: latency from due equals the exchange's own latency.
	late, _, total = sinceDue(loop.due(3), loop.due(3), 3*time.Millisecond, 4*time.Millisecond)
	if late != 0 || total != 4*time.Millisecond {
		t.Errorf("on-time request: late %v total %v", late, total)
	}
}
