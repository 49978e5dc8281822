package main

import (
	"math/rand"
	"testing"
)

// oracle answers the nearest-rank question by counting instead of by
// index arithmetic: the smallest sample v with count(x <= v)*1e6 >=
// ppm*n.  Ties need no special case because the count includes every
// copy of v.
func oracle(sorted []int64, ppm int64) int64 {
	n := int64(len(sorted))
	for _, v := range sorted {
		var le int64
		for _, x := range sorted {
			if x <= v {
				le++
			}
		}
		if le*1_000_000 >= ppm*n {
			return v
		}
	}
	return sorted[n-1]
}

func TestPercentileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ppms := []int64{1, p50, 750_000, p99, p999, 1_000_000}
	for n := 1; n <= 60; n++ {
		for trial := 0; trial < 20; trial++ {
			xs := make([]int64, n)
			for i := range xs {
				// A small value range forces many ties.
				xs[i] = rng.Int63n(int64(n/3 + 1))
			}
			s := sortedCopy(xs)
			for _, ppm := range ppms {
				if got, want := percentile(s, ppm), oracle(s, ppm); got != want {
					t.Fatalf("n=%d ppm=%d: got %d, oracle %d (samples %v)", n, ppm, got, want, s)
				}
			}
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	if got := percentile(nil, p50); got != 0 {
		t.Fatalf("empty: got %d", got)
	}
	one := []int64{42}
	for _, ppm := range []int64{1, p50, p99, p999} {
		if got := percentile(one, ppm); got != 42 {
			t.Fatalf("n=1 ppm=%d: got %d", ppm, got)
		}
	}
	// At n=1000, p999 is rank 999 exactly: the largest sample is the
	// only one beyond it.  0.999*1000 in floating point is not an exact
	// integer, which is the case the integer ranks exist for.
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if got := percentile(xs, p999); got != 999 {
		t.Fatalf("n=1000 p999: got %d, want 999", got)
	}
	if got := percentile(xs, p99); got != 990 {
		t.Fatalf("n=1000 p99: got %d, want 990", got)
	}
	if got := percentile(xs, p50); got != 500 {
		t.Fatalf("n=1000 p50: got %d, want 500", got)
	}
	// At n=1001 the p999 rank is ceil(999.999) = 1000, and at n=1002
	// it is ceil(1000.998) = 1001.
	xs = append(xs, 1001)
	if got := percentile(xs, p999); got != 1000 {
		t.Fatalf("n=1001 p999: got %d, want 1000", got)
	}
	xs = append(xs, 1002)
	if got := percentile(xs, p999); got != 1001 {
		t.Fatalf("n=1002 p999: got %d, want 1001", got)
	}
	ties := []int64{5, 5, 5, 5, 9}
	if got := percentile(ties, 800_000); got != 5 {
		t.Fatalf("ties p80: got %d, want 5", got)
	}
	if got := percentile(ties, 800_001); got != 9 {
		t.Fatalf("ties just above p80: got %d, want 9", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even: got %v", got)
	}
}
