// Package stats provides the small numeric summaries the experiment
// harness reports (means, maxima, fractions above a threshold) and a
// fixed-width text-table renderer for the regenerated paper tables and
// figures.
package stats

import "math"

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// FractionAbove returns the fraction of values strictly above the threshold.
func FractionAbove(v []float64, threshold float64) float64 {
	if len(v) == 0 {
		return 0
	}
	n := 0
	for _, x := range v {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(v))
}
