package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a percentile before
// the benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// tailWant is the tail percentile every workload reports when its
// sample count supports it (see tailPercentile).
const tailWant = 99

// samplesBeyond is how many of n samples rank above the nearest-rank
// p-th percentile.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailPercentile returns the highest percentile, no higher than want,
// that n samples support: one of 99, 95, 90, 75 with at least
// minBeyond samples above it, else 50.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if p <= want && samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// dist is a sorted sample set.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct is the nearest-rank p-th percentile (0 for an empty set).
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1-samplesBeyond(len(d), p)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	d := newDist(xs)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}
