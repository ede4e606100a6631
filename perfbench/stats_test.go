package main

import "testing"

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // exactly 10 samples above p99
		{999, 95},  // 9 above p99
		{200, 95},  // 10 above p95
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{5, 50},
	} {
		if got := tailPercentile(tc.n, 99); got != tc.want {
			t.Errorf("tailPercentile(%d, 99) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := tailPercentile(5000, 90); got != 90 {
		t.Errorf("tailPercentile(5000, 90) = %g: must not exceed the requested percentile", got)
	}
	for _, n := range []int{40, 100, 199, 1000, 5000} {
		p := tailPercentile(n, 99)
		if b := samplesBeyond(n, p); p > 50 && b < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", n, p, b)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	d := newDist(xs)
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := d.pct(p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
