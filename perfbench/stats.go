package main

import (
	"math"
	"sort"
)

// minTail is the percentile rule: a tail percentile is reported only when at
// least this many samples lie beyond it, so one slow sample cannot set it.
const minTail = 10

// median returns the median of xs (the mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; NaN for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and how many samples rank beyond it. The caller applies the percentile
// rule by comparing beyond with minTail.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// execPercentile returns the median over executions of each execution's
// nearest-rank p-th percentile, and the fewest samples beyond it in any one
// execution. Over the run's samples pooled, a slow stretch of the host that
// covers a few executions sets a tail percentile outright, and a median can
// fall in the gap between greedy and opportunistic cells; taken per
// execution, such a stretch moves it no more than it moves the median wall.
func execPercentile(execs [][]float64, p float64) (v float64, minBeyond int) {
	if len(execs) == 0 {
		return math.NaN(), 0
	}
	tails := make([]float64, len(execs))
	minBeyond = math.MaxInt
	for i, xs := range execs {
		var beyond int
		tails[i], beyond = percentile(xs, p)
		minBeyond = min(minBeyond, beyond)
	}
	return median(tails), minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
