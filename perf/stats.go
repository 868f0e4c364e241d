package perf

import (
	"slices"
	"sort"
)

// Median returns the sample median (0 on an empty sample). The input
// is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third
// quartile of a non-empty sample, interpolating linearly between the
// order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}
