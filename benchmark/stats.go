package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of v (p in (0,1]): the smallest
// sample with at least p of the samples at or below it. It returns a value
// that was actually measured, never an interpolation. Empty input gives 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 50th percentile with the usual midpoint for even counts, so
// a median of medians does not drift low.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does — the
// driver computes run-to-run spread that way, so -compare must too. Fewer
// than two samples give the single value (or zeros) three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		if len(v) == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median — the
// run-to-run spread the acceptance rule bounds. A zero median gives 0.
func spreadShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
