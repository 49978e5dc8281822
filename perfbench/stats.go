package main

import (
	"sort"
	"time"
)

// Percentiles are given in parts per million so that the rank
// arithmetic stays in integers: 0.999*n in floating point can land a
// hair above an integer and push a nearest-rank ceiling one rank too
// far.
const (
	p50  = 500_000
	p99  = 990_000
	p999 = 999_000
)

// percentile returns the nearest-rank percentile of sorted samples: the
// smallest sample v such that at least ppm/1e6 of the samples are <= v.
// The rank is ceil(ppm*n/1e6), clamped to [1, n]; an empty slice gives 0.
func percentile(sorted []int64, ppm int64) int64 {
	n := int64(len(sorted))
	if n == 0 {
		return 0
	}
	rank := (ppm*n + 999_999) / 1_000_000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// msAt returns the percentile of virtual-time samples in milliseconds.
func msAt(sorted []int64, ppm int64) float64 {
	return float64(percentile(sorted, ppm)) / float64(time.Millisecond)
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
