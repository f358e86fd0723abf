package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest value with at least
// q*len(xs) samples at or below it. The nearest-rank rule returns an
// observed sample, never an interpolation between two regimes.
// An empty input yields NaN, so a metric nobody measured fails the
// finite-value gate instead of reading as zero.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint median (mean of the two middle samples for an
// even count), used across rounds and across set-ups.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundMedian applies f to every round's samples and returns the median
// of the per-round values: the statistic every reported timing uses. A
// slow host regime covering a minority of the rounds moves nothing,
// where a percentile pooled over the whole run would be drawn entirely
// from it.
func roundMedian(rounds [][]float64, f func([]float64) float64) float64 {
	per := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if len(r) > 0 {
			per = append(per, f(r))
		}
	}
	return median(per)
}

func p50(xs []float64) float64 { return quantile(xs, 0.50) }
func p90(xs []float64) float64 { return quantile(xs, 0.90) }

// relDiff is |a-b| relative to their mean magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / ((math.Abs(a) + math.Abs(b)) / 2)
}
