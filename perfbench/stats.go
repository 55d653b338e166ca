package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// durQuantile is quantile over durations, in seconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, q)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest whole percentile that leaves at
// least ten samples beyond it (nearest rank), and that percentile.
// With ten samples or fewer no such percentile exists and the maximum
// is returned as p100.
func tailPercentile(xs []float64) (float64, int) {
	n := len(xs)
	if n <= 10 {
		return quantile(xs, 1), 100
	}
	pct := 100 * (n - 10) / n
	return sorted(xs)[rankOf(pct, n)-1], pct
}

// rankOf is the nearest rank of percentile pct among n samples.
func rankOf(pct, n int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}
