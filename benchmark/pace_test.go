package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A warm-up window: every leader does exactly its op count, and a
// follower keeps going until the last leader has left.
func TestPacerStopsLeadersByOpsAndFollowersAfterThem(t *testing.T) {
	p := newPacer(5, 0, 2, 1, nil)
	var wg sync.WaitGroup
	var done [2]int
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; p.next(j, true); j++ {
				done[c]++
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; p.next(j, false); j++ {
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	if done != [2]int{5, 5} {
		t.Errorf("leaders did %v ops, want 5 each", done)
	}
	if _, speed := p.finish(); speed != 0 || len(p.samples) != 0 {
		t.Errorf("a window without slices sampled the speed: %v", p.samples)
	}
}

// A measured window: clients are parked together while a sample is
// taken, the active clock excludes the samples, and the mean of the
// samples comes back from finish.
func TestPacerSamplesBetweenOpsOnTheActiveClock(t *testing.T) {
	const ops, opTime, slice, sampleTime = 30, time.Millisecond, 10 * time.Millisecond, 5 * time.Millisecond
	var inOp, overlap atomic.Int32
	next := 1.0
	sample := func() float64 {
		if inOp.Load() != 0 {
			overlap.Add(1)
		}
		time.Sleep(sampleTime)
		next++
		return next
	}
	p := newPacer(ops, slice, 2, 0, sample)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; p.next(j, true); j++ {
				inOp.Add(1)
				time.Sleep(opTime)
				inOp.Add(-1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(p.start)
	active, speed := p.finish()
	n := len(p.samples) // newPacer's, the window's, finish's
	if n < 4 {
		t.Fatalf("only %d samples in a %s window sliced every %s", n, elapsed, slice)
	}
	if overlap.Load() != 0 {
		t.Errorf("%d samples ran while a client was mid-op", overlap.Load())
	}
	if parked := time.Duration(n-2) * sampleTime; active > elapsed-parked {
		t.Errorf("active %s of %s elapsed: %d samples of %s were not kept off the active clock", active, elapsed, n-2, sampleTime)
	}
	if active < ops*opTime {
		t.Errorf("active %s is less than one client's %d ops of %s", active, ops, opTime)
	}
	// Samples were 2, 3, ..., n+1.
	if want := float64(n+3) / 2; speed != want {
		t.Errorf("mean speed %v, want %v", speed, want)
	}
}

// A committer stalls at a due sample only until the reader's scan in
// flight is over: a reader asleep until its next due time counts as
// parked, its schedule shifts by the time parked, and the wait for the
// barrier is not charged to the active clock.
func TestPacerDoesNotWaitForAnIdleFollower(t *testing.T) {
	const slice, sampleTime, interval = 5 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond
	p := newPacer(10, slice, 1, 1, func() float64 { time.Sleep(sampleTime); return 1 })
	var wg sync.WaitGroup
	var dues []time.Time
	var shifts []time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		loop := openLoop{t0: p.start, interval: interval}
		for j := 0; p.next(j, false); j++ {
			dues = append(dues, p.idleUntil(loop.due(j)))
			p.mu.Lock()
			shifts = append(shifts, p.paused)
			p.mu.Unlock()
		}
	}()
	for j := 0; p.next(j, true); j++ {
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(p.start)
	wg.Wait()
	active, _ := p.finish()
	// 10 ops of 2 ms and the samples between them: had the committer
	// waited for the reader it would have sat out a 200 ms interval at
	// every sample.
	if elapsed > interval {
		t.Errorf("the committer took %s: it waited for a sleeping reader", elapsed)
	}
	if active > 60*time.Millisecond {
		t.Errorf("active %s for 10 ops of 2 ms: parked time was charged to the window", active)
	}
	if len(dues) != 2 {
		t.Fatalf("reader was due %d times, want 2", len(dues))
	}
	if got := dues[1].Sub(p.start); got != interval+shifts[1] || shifts[1] < 2*sampleTime {
		t.Errorf("second read due %s after start, want the %s interval shifted by the %s parked", got, interval, shifts[1])
	}
}
