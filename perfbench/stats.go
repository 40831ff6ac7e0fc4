package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does; NaN for no data.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives with its default "exclusive" method,
// the definition the benchmark's spread is judged by. It needs at least two
// values; with fewer it returns NaNs.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	ld := len(xs)
	if ld < 2 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// tailBeyond is the number of samples a reported tail percentile must
// leave strictly above it.
const tailBeyond = 10

// tail implements the rule for reporting a latency tail: the highest
// percentile that still has at least tailBeyond samples strictly beyond
// it. It returns the sample value at that percentile and the percentile
// itself (the share of samples at or below the value, in percent). With
// too few samples for any such percentile, ok is false and the maximum is
// returned at the 100th percentile.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), false
	}
	s := sorted(xs)
	for k := n - tailBeyond - 1; k >= 0; k-- {
		// Ties: the count beyond must be strict, so step down past any
		// run of values equal to s[k+1].
		beyond := n - sort.Search(n, func(i int) bool { return s[i] > s[k] })
		if beyond >= tailBeyond {
			atOrBelow := n - beyond
			return s[k], 100 * float64(atOrBelow) / float64(n), true
		}
	}
	return s[n-1], 100, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
