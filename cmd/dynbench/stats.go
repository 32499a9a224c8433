package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values, or 0 when xs is
// empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0, so derived metrics stay JSON-safe.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perCircuitGeomean groups samples by circuit, takes each circuit's median,
// and returns the geometric mean of those medians: every circuit weighs the
// same however many of its attacks finished, and a secret that makes one
// attack slow moves only its own circuit's median.
func perCircuitGeomean(circuits []string, samples map[string][]float64) float64 {
	meds := make([]float64, 0, len(circuits))
	for _, c := range circuits {
		if xs := samples[c]; len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}
