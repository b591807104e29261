package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for an empty slice. xs is not modified.
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

// tail returns the highest order statistic of xs that has at least ten
// samples beyond it, and the percentile it sits at: with n samples that is
// the (n-10)-th smallest, at percentile 100·(n-10)/n. With ten samples or
// fewer no such percentile exists; tail then returns the maximum at
// percentile 100 and ok=false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	if n <= 10 {
		return s[n-1], 100, false
	}
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
