package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two closest ranks. sorted must be
// ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// samplesBeyond counts the samples strictly above the q-quantile's
// rank: a percentile is only reported as trustworthy when at least ten
// samples lie beyond it.
func samplesBeyond(n int, q float64) int {
	return n - 1 - int(math.Ceil(q*float64(n-1)))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// default "exclusive" method), which is what the acceptance driver uses
// for the run-to-run spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy is the share of first by which second is worse, given the
// metric's direction ("lower" or "higher" is better); negative when
// second is better.
func worseBy(better string, first, second float64) float64 {
	if first == 0 {
		return 0
	}
	if better == "higher" {
		return (first - second) / math.Abs(first)
	}
	return (second - first) / math.Abs(first)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durQuantile is quantile over durations, converted by conv (ms, us,
// or float64-nanoseconds). It returns 0 for an empty sample so S- and
// C-kind layer metrics that a workload never exercises read as zero.
func durQuantile(ds []time.Duration, q float64, conv func(time.Duration) float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = conv(d)
	}
	sort.Float64s(v)
	return quantile(v, q)
}

func ns(d time.Duration) float64 { return float64(d) }
