package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // unsorted on purpose
	cases := []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
	// 200 samples: the 95th percentile leaves exactly ten samples beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if median(nil) != 0 {
		t.Error("empty median must be 0")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(v, n=4): the driver's spread computation.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7.1, 6.9, 7.4, 7.0, 7.2, 7.3, 6.8, 7.5, 7.05, 7.15}, 6.975, 7.125, 7.325},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spreadShare = %v, want 1 (IQR 5.5 over median 5.5)", s)
	}
	if q1, _, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Error("a single value is its own quartiles")
	}
}
