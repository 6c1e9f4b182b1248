package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailBasisPoints are the percentiles tail considers, in hundredths of a
// percent (integers, so "ten samples beyond" is counted exactly), highest
// first.
var tailBasisPoints = []int{9999, 9990, 9900, 9000, 5000}

// tail returns the highest of those percentiles that still has at least
// ten samples beyond it, with its value. ok is false when xs has fewer than
// 20 samples, where even the median has fewer than ten beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, bp := range tailBasisPoints {
		if len(xs)*(10000-bp) >= 10*10000 {
			return float64(bp) / 100, quantile(xs, float64(bp)/10000), true
		}
	}
	return 0, 0, false
}

// quietMedian splits xs, in the order the operations completed, into
// slices consecutive groups of equal size (the last one takes the rest)
// and returns the lowest group median: the operation time of the run's
// quietest stretch. With fewer than twice as many operations as slices it
// is the minimum.
func quietMedian(xs []float64, slices int) float64 {
	if len(xs) == 0 {
		return 0
	}
	size := max(1, len(xs)/slices)
	best := math.Inf(1)
	for lo := 0; lo < len(xs); lo += size {
		hi := lo + size
		if hi+size > len(xs) {
			hi = len(xs)
		}
		best = min(best, median(xs[lo:hi]))
		if hi == len(xs) {
			break
		}
	}
	return best
}
