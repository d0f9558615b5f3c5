package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: fewer, and the percentile is one or two outliers, not a
// property of the workload.
const minTail = 10

// median returns the median of xs (the mean of the middle two for an even
// count). xs is sorted in place. It returns NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantile returns the nearest-rank q-quantile of xs (sorted in place),
// or an error when fewer than minTail samples lie beyond it — the rule that
// keeps a reported tail percentile from resting on a handful of samples.
func tailQuantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile %g of no samples", q)
	}
	r := rank(n, q)
	if beyond := n - r; beyond < minTail {
		return 0, fmt.Errorf("quantile %g of %d samples has %d beyond it, need %d", q, n, beyond, minTail)
	}
	sort.Float64s(xs)
	return xs[r-1], nil
}

// describe prints a sample set's count and quartiles to standard error, so a
// reader can see what each reported median rests on.
func describe(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[rank(len(s), p)-1] }
	fmt.Fprintf(os.Stderr, "perfbench: %-10s n=%-8d p25=%.6g p50=%.6g p75=%.6g max=%.6g\n",
		name, len(s), q(0.25), q(0.5), q(0.75), s[len(s)-1])
}
