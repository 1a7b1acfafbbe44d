package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 over 500 samples rests on five values and moves with each of
// them, so the percentile helper refuses it instead of printing noise.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by
// the nearest-rank rule. It refuses when fewer than minTail samples lie
// above the rank. samples is sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: out of range", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p, n, beyond, minTail)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place. NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" method as Python's statistics.quantiles(xs,
// n=4), which is how the spread of a result set is judged. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// The integer arithmetic of statistics.quantiles, transcribed:
		// j is the 1-based lower neighbour, clamped to 1..n-1, and delta
		// the interpolation weight in quarters.
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3), nil
}

// spread is the interquartile distance of xs as a share of its median:
// the figure the benchmark's bounds are checked against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// scaled returns xs, each multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
