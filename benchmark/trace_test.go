package main

import (
	"math"
	"testing"
	"time"
)

// Daemon stage spans are sums across workers: they overlap each other
// and overrun the request. Self times must still add up to the
// request's duration, and never go negative.
func TestSelfTimesSumToRequestDuration(t *testing.T) {
	tr := newTracer()
	start := tr.epoch.Add(5 * time.Millisecond)
	tr.request("POST /scan", start, 10*time.Millisecond, []wireSpan{
		{Name: "parse", OffsetMS: 0.5, DurMS: 1},
		{Name: "cache_probe", OffsetMS: 1.5, DurMS: 14}, // summed over two workers: overruns
		{Name: "engine_eval", OffsetMS: 1.5, DurMS: 6},  // overlaps cache_probe
		{Name: "serialize", OffsetMS: 9.5, DurMS: 0.2},
	})
	tr.request("POST /changeset", start.Add(20*time.Millisecond), 3*time.Millisecond, nil)
	finish(tr.spans)

	sum := map[int]float64{}
	for _, s := range tr.spans {
		if s.SelfMS < -1e-9 {
			t.Errorf("%s: negative self time %v", s.Name, s.SelfMS)
		}
		sum[s.Req] += s.SelfMS
	}
	if math.Abs(sum[1]-10) > 1e-6 || math.Abs(sum[2]-3) > 1e-6 {
		t.Errorf("self times sum to %v and %v, want 10 and 3", sum[1], sum[2])
	}
	// The request's own self time is what no stage covers: 0.5 ms before
	// parse and nothing after cache_probe, which runs to the end.
	if got := tr.spans[0].SelfMS; math.Abs(got-0.5) > 1e-6 {
		t.Errorf("request self time %v, want 0.5", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.request("x", time.Now(), time.Millisecond, nil)
	tr.probe("store", "x", time.Now(), time.Millisecond, 1)
}
