package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a latency tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is one or two unlucky requests, not a tail.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it under the nearest-rank definition
// (the p-th percentile is the ceil(p/100·n)-th smallest sample). ok is false
// when no percentile qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(p float64, n int) int {
	// The epsilon absorbs binary rounding: 99.9/100·10000 is 9990.000000000002.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of xs (unsorted; xs is
// not modified). It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(p, len(s))-1]
}

// median is the midpoint of xs: the middle sample, or the mean of the two
// middle samples for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which is
// the spread rule the benchmark's acceptance is stated in. Fewer than two
// samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
