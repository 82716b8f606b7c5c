package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

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

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match those computed from the result files.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// relIQR is the interquartile range as a share of the median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return iqr(xs) / math.Abs(m)
}

// tailPercentile is the highest percentile of n samples that still has at
// least ten samples beyond it. Below 20 samples no percentile above the
// median qualifies, and the median is reported instead.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return 100 * float64(n-10) / float64(n)
}

// tail returns the value at tailPercentile(len(xs)) and that percentile:
// the eleventh-largest sample, or the median below 20 samples.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), tailPercentile(n)
	}
	return sorted(xs)[n-11], tailPercentile(n)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
