package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailMin = 10

// median returns the median of xs (the mean of the middle pair for even
// lengths); 0 for an empty slice.
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

// tail returns the highest nearest-rank percentile of xs that has at
// least tailMin samples beyond it, and its value: with n samples that is
// the (n-tailMin)-th smallest, percentile 100·(n-tailMin)/n. ok is false
// when n <= tailMin; then the maximum is returned as percentile 100.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	if n <= tailMin {
		return 100, s[n-1], false
	}
	i := n - 1 - tailMin
	return 100 * float64(i+1) / float64(n), s[i], true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
