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

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
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

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail is the highest whole percentile with at least tailMinBeyond
// samples beyond it, and its nearest-rank value. ok is false when there
// are too few samples for any such percentile.
func tail(xs []float64) (pct int, val float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for p := 99; p >= 1; p-- {
		k := int(math.Ceil(float64(p) / 100 * float64(n)))
		if k >= 1 && n-k >= tailMinBeyond {
			return p, s[k-1], true
		}
	}
	return 0, 0, false
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// finite is x, or nil (JSON null) for an infinite or NaN x: a failed
// job's latency is infinite.
func finite(x float64) any {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return x
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
