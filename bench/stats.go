package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of ascending values, interpolating
// linearly between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sampleMetric reports the q-quantile of the samples with their quartiles
// and count.
func sampleMetric(samples []float64, q float64, unit string) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return metric{
		Value: quantile(s, q),
		Unit:  unit,
		N:     len(s),
		P25:   quantile(s, 0.25),
		P75:   quantile(s, 0.75),
	}
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
