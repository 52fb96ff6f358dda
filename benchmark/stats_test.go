package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}, {0.25, 20}} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of unsorted even sample = %v, want 2.5", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	// 100 samples: p90 sits at rank 89.1, so ranks 90..99 lie beyond it.
	if got := samplesBeyond(100, 0.9); got != 9 {
		t.Errorf("samplesBeyond(100, .9) = %d, want 9", got)
	}
	if got := samplesBeyond(111, 0.9); got != 11 {
		t.Errorf("samplesBeyond(111, .9) = %d, want 11", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 12}, [3]float64{9.5, 11, 12.5}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); !near(got, 1) {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5 = 1", got)
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	if got := worseBy("lower", 100, 108); !near(got, 0.08) {
		t.Errorf("latency 100 -> 108: worse by %v, want 0.08", got)
	}
	if got := worseBy("higher", 100, 92); !near(got, 0.08) {
		t.Errorf("throughput 100 -> 92: worse by %v, want 0.08", got)
	}
	if got := worseBy("higher", 100, 110); !near(got, -0.10) {
		t.Errorf("throughput 100 -> 110: worse by %v, want -0.10", got)
	}
}

func TestDurQuantileUnits(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := durQuantile(ds, 0.5, ms); !near(got, 2) {
		t.Errorf("p50 = %v ms, want 2", got)
	}
	if got := durQuantile(ds, 0.5, us); !near(got, 2000) {
		t.Errorf("p50 = %v us, want 2000", got)
	}
	if got := durQuantile(nil, 0.5, ms); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

// A pair fails when a spread exceeds the bound (set-up time's is not
// judged) or two sets of runs of one tree differ by more than half of it.
func TestVerdictOf(t *testing.T) {
	m := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.24}
	for _, c := range []struct {
		m             metricDef
		s1, s2, worse float64
		want          string
	}{
		{m, 0.05, 0.07, 0.02, "steady"},
		{m, 0.05, 0.09, 0.02, "pass"},
		{m, 0.05, 0.25, 0.02, "FAIL"},
		{m, 0.05, 0.07, 0.13, "FAIL"},
		{m, 0.05, 0.07, -0.40, "steady"},
		{metricDef{Name: "setup_s", Better: "lower", Bound: 0.24}, 0.05, 0.50, 0.11, "steady"},
		{metricDef{Name: "setup_s", Better: "lower", Bound: 0.24}, 0.05, 0.07, 0.13, "FAIL"},
	} {
		if got := verdictOf(c.m, c.s1, c.s2, c.worse); got != c.want {
			t.Errorf("verdictOf(%s, %v, %v, %v) = %s, want %s", c.m.Name, c.s1, c.s2, c.worse, got, c.want)
		}
	}
}
