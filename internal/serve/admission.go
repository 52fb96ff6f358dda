package serve

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"knighter/internal/api"
	"knighter/internal/obs"
)

// admission is the bounded two-stage gate in front of the read
// endpoints (/scan, /batch) and, as a second instance, the write
// endpoints (/changeset, /converge): at most maxInflight requests
// execute at once, at most maxQueued wait behind them, and everything
// beyond that is shed immediately with 429 + Retry-After. Shedding is
// the backpressure ROADMAP asked for — one client blasting /batch can
// fill the queue, but it cannot make the daemon buffer unbounded work or
// starve the accept loop, and a well-behaved client sees an honest
// retry hint instead of a hung connection.
//
// Admission is deliberately in front of the handler, not inside it: a
// shed request costs one atomic add and one small JSON write, never a
// checker compile or a codebase lock.
type admission struct {
	// tokens is the inflight semaphore; sends acquire, receives release.
	tokens    chan struct{}
	maxQueued int64
	queued    atomic.Int64
	inflight  atomic.Int64
	// admitted/shed are the gate's counters in the replica's registry;
	// /stats reads the same objects.
	admitted *obs.Counter
	shed     *obs.Counter

	// waitDur observes how long each admitted request waited for an
	// inflight slot (fast-path admissions count as zero, so the
	// distribution reflects what clients actually see).
	waitDur *obs.Histogram

	// generation stamps shed responses with the corpus generation the
	// daemon was serving at shed time.
	generation func() int64
}

// newAdmission returns a gate admitting maxInflight concurrent requests
// with maxQueued waiters. The gate's instruments land in reg under the
// given name prefix ("admission" for the read gate, "write_admission"
// for the write gate): instantaneous queue depth and inflight gauges,
// cumulative admitted/shed counters, and the queue-wait histogram.
func newAdmission(reg *obs.Registry, prefix string, maxInflight, maxQueued int, generation func() int64) *admission {
	a := &admission{
		tokens:     make(chan struct{}, maxInflight),
		maxQueued:  int64(maxQueued),
		generation: generation,
		admitted:   reg.Counter(prefix+"_admitted_total", "Requests admitted through the gate."),
		shed:       reg.Counter(prefix+"_shed_total", "Requests shed with 429 (queue full)."),
		waitDur: reg.Histogram(prefix+"_wait_seconds",
			"Queue wait of each admitted request; fast-path admissions observe zero.", nil),
	}
	reg.GaugeFunc(prefix+"_queue_depth", "Requests currently waiting for an inflight slot.",
		func() float64 { return float64(a.queued.Load()) })
	reg.GaugeFunc(prefix+"_inflight", "Requests currently executing behind the gate.",
		func() float64 { return float64(a.inflight.Load()) })
	return a
}

// retryAfterSeconds estimates when a slot is likely to free up: one
// "drain cycle" per full queue's worth of waiters ahead, and at least a
// second so clients cannot busy-spin.
func (a *admission) retryAfterSeconds() int {
	return 1 + int(a.queued.Load())/cap(a.tokens)
}

func (a *admission) shedRequest(w http.ResponseWriter, msg string) {
	a.shed.Inc()
	secs := a.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErrorEnvelope(w, http.StatusTooManyRequests, &api.Error{
		Code:         api.ErrOverloaded,
		Message:      msg,
		RetryAfterMS: int64(secs) * 1000,
	}, a.generation())
}

// wrap gates h behind the admission queue.
func (a *admission) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case a.tokens <- struct{}{}:
			// Fast path: a slot was free.
			a.waitDur.Observe(0)
		default:
			if q := a.queued.Add(1); q > a.maxQueued {
				a.queued.Add(-1)
				a.shedRequest(w, "admission queue full; retry after the indicated delay")
				return
			}
			waitStart := time.Now()
			select {
			case a.tokens <- struct{}{}:
				a.queued.Add(-1)
				wait := time.Since(waitStart)
				a.waitDur.Observe(wait.Seconds())
				// Queue wait lands in the request's trace timeline, so a
				// slow-request report distinguishes "the daemon was
				// saturated" from "the scan itself was slow".
				obs.TraceFrom(r.Context()).Observe("admission_wait", waitStart, wait, 1)
			case <-r.Context().Done():
				// The client gave up while queued; release the queue slot
				// without ever taking an inflight one.
				a.queued.Add(-1)
				return
			}
		}
		a.admitted.Inc()
		a.inflight.Add(1)
		defer func() {
			a.inflight.Add(-1)
			<-a.tokens
		}()
		h(w, r)
	}
}

// snapshot returns the current counters as the /stats wire shape.
func (a *admission) snapshot() api.AdmissionStats {
	return api.AdmissionStats{
		MaxInflight: cap(a.tokens),
		MaxQueued:   a.maxQueued,
		Inflight:    a.inflight.Load(),
		Queued:      a.queued.Load(),
		Admitted:    count(a.admitted),
		Shed:        count(a.shed),
	}
}
