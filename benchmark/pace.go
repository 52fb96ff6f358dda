package main

import (
	"sync"
	"time"
)

// pacer paces one window's clients. Leaders — the closed-loop clients —
// each do a fixed number of ops, so a window does the same work on every
// run and commit; followers — the open-loop reader beside the committer
// — stop once every leader has left.
//
// In a measured window it also parks all clients between ops every slice
// of active time and samples the machine's speed (see calibrator), so
// that the window's time metrics can be reported at a reference machine
// speed. Time spent parked is not part of the window: the throughput
// denominator and the open-loop schedule run on the active clock, which
// stands still from the moment a sample falls due until it is taken.
type pacer struct {
	ops    int           // each leader stops after this many ops
	slice  time.Duration // sample the speed every slice of active time; 0: never
	sample func() float64

	mu         sync.Mutex
	cond       *sync.Cond
	start      time.Time
	paused     time.Duration // total time off the active clock so far
	pauseStart time.Time     // when the sample being waited for fell due
	lastSamp   time.Duration // active time of the last sample
	pausing    bool          // a sample is due: clients park as they arrive
	sampling   bool          // the last client to park is taking the sample
	parked     int
	clients    int
	leaders    int
	end        time.Duration // active time when the last leader left
	samples    []float64
}

// speedSlice is how often the machine's speed is sampled inside a
// measured window. A shared box's speed moves by ±15% from one tenth of
// a second to the next as well as drifting over minutes, so it takes the
// mean of some seventy short samples to estimate an 18 s window's speed
// to 2-3%; they cost an eighth of the window's length in parked time.
const speedSlice = 250 * time.Millisecond

// newPacer makes a pacer for leaders leader clients doing ops ops each
// and followers follower clients. slice and sample are zero for a
// warm-up window, which nobody times.
func newPacer(ops int, slice time.Duration, leaders, followers int, sample func() float64) *pacer {
	p := &pacer{ops: ops, slice: slice, leaders: leaders, clients: leaders + followers, sample: sample}
	p.cond = sync.NewCond(&p.mu)
	if slice > 0 {
		p.samples = append(p.samples, p.sample())
	}
	p.start = time.Now()
	return p
}

// active is the window's clock: time since start, less time parked.
// Callers hold mu.
func (p *pacer) active() time.Duration { return time.Since(p.start) - p.paused }

// park holds the caller, already counted in parked, until no sample is
// due. Callers hold mu.
func (p *pacer) park() {
	p.settle()
	for p.pausing {
		p.cond.Wait()
	}
}

// next is called by a client before each op, with the number of ops it
// has done. It parks the client while a speed sample is taken and then
// reports whether to go on. A client told to stop has left the pacer and
// must not call next again.
func (p *pacer) next(done int, leader bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slice > 0 && p.leaders > 0 && !p.pausing && p.active()-p.lastSamp >= p.slice {
		p.pausing, p.pauseStart = true, time.Now()
	}
	if p.pausing {
		p.parked++
		p.park()
		p.parked--
	}
	stop := p.leaders == 0
	if leader {
		stop = done >= p.ops
	}
	if !stop {
		return true
	}
	p.clients--
	if leader {
		if p.leaders--; p.leaders == 0 {
			p.end = p.active()
		}
	}
	p.settle()
	return false
}

// idleUntil lets a client wait for its own schedule: it sleeps until t
// on the active clock — t shifted by all the time the window has been
// parked, the part that passes while it sleeps included — and returns
// that shifted time. An idle client counts as parked, so a sample never
// waits for a sleeper.
func (p *pacer) idleUntil(t time.Time) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parked++
	defer func() { p.parked-- }()
	for {
		p.park()
		due := t.Add(p.paused)
		wait := time.Until(due)
		if wait <= 0 {
			return due
		}
		p.mu.Unlock()
		time.Sleep(wait)
		p.mu.Lock()
	}
}

// settle takes the due sample once every remaining client is parked.
// The caller holds mu; it is released while the sample runs, with
// sampling set so that nobody else starts one.
func (p *pacer) settle() {
	if !p.pausing || p.sampling || p.parked < p.clients {
		return
	}
	p.sampling = true
	p.mu.Unlock()
	s := p.sample()
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.paused += time.Since(p.pauseStart)
	p.lastSamp = p.active()
	p.sampling, p.pausing = false, false
	p.cond.Broadcast()
}

// finish closes the window after every client has left: one last
// sample, then the active time up to the last leader's exit and the mean
// speed over the window's samples (0 when it took none).
func (p *pacer) finish() (active time.Duration, speed float64) {
	if p.slice == 0 {
		return p.end, 0
	}
	p.samples = append(p.samples, p.sample())
	return p.end, mean(p.samples)
}
