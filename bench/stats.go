package main

import (
	"math"
	"sort"

	"ampsched/internal/stats"
)

// median is stats.Median, except that nothing measured reads 0, not NaN.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Median(v)
}

// quartiles returns the first quartile, the median and the third quartile
// exactly as Python's statistics.quantiles(v, n=4) computes them (the
// "exclusive" method), because that is the rule the spread check is stated
// in. Fewer than two values have no spread: all three are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m, m
	}
	s := sorted(v)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice.
func percentile(ascending []float64, p float64) float64 {
	if len(ascending) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(ascending)))) - 1
	if k < 0 {
		k = 0
	}
	return ascending[k]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// geomean returns the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(v)))
}
