// Package stats provides the small statistical toolbox used by the
// experiment drivers: means, medians, maxima, empirical CDFs and 2-D
// histograms (for the paper's Table I, Fig. 1 and Fig. 2).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (average of the two middle elements for
// even lengths), or NaN for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FractionAtMost returns the fraction of xs that are ≤ bound (with a small
// tolerance for floating-point ties), or NaN for an empty slice.
func FractionAtMost(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x <= bound+1e-9 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples ≤ X
}

// CDF returns the empirical cumulative distribution of xs as a sorted
// list of (value, cumulative fraction) points, one per distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	var out []CDFPoint
	for i, x := range c {
		p := float64(i+1) / float64(len(c))
		if len(out) > 0 && out[len(out)-1].X == x {
			out[len(out)-1].P = p
			continue
		}
		out = append(out, CDFPoint{X: x, P: p})
	}
	return out
}

// CDFAt evaluates an empirical CDF (as produced by CDF) at x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range cdf {
		if pt.X <= x {
			p = pt.P
		} else {
			break
		}
	}
	return p
}

// Hist2D is a sparse two-dimensional histogram over integer coordinates,
// used for the Fig. 2 core-usage-delta heatmaps.
type Hist2D struct {
	counts map[[2]int]int
	total  int
}

// NewHist2D returns an empty histogram.
func NewHist2D() *Hist2D {
	return &Hist2D{counts: map[[2]int]int{}}
}

// Add increments the (x, y) bin.
func (h *Hist2D) Add(x, y int) {
	h.counts[[2]int{x, y}]++
	h.total++
}

// Total returns the number of samples added.
func (h *Hist2D) Total() int { return h.total }

// Fraction returns the fraction of samples in bin (x, y).
func (h *Hist2D) Fraction(x, y int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[[2]int{x, y}]) / float64(h.total)
}

// Bounds returns the inclusive coordinate ranges covered by the histogram.
// Empty histograms return zeros.
func (h *Hist2D) Bounds() (xmin, xmax, ymin, ymax int) {
	first := true
	for k := range h.counts {
		if first {
			xmin, xmax, ymin, ymax = k[0], k[0], k[1], k[1]
			first = false
			continue
		}
		if k[0] < xmin {
			xmin = k[0]
		}
		if k[0] > xmax {
			xmax = k[0]
		}
		if k[1] < ymin {
			ymin = k[1]
		}
		if k[1] > ymax {
			ymax = k[1]
		}
	}
	return
}

// FractionWhere returns the fraction of samples whose bin satisfies pred.
func (h *Hist2D) FractionWhere(pred func(x, y int) bool) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for k, c := range h.counts {
		if pred(k[0], k[1]) {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}
