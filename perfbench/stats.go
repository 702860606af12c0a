package main

import "sort"

// quantile interpolates the q-quantile of sorted values; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail returns the highest percentile of sorted latencies that still
// has ten samples beyond it, and that percentile. Below twenty samples
// such a percentile would sit at or under the median, so the maximum
// is reported instead (percentile 100).
func tail(sorted []float64) (value, percentile float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 20 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
