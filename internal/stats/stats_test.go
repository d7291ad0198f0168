package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanMedianMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Max(xs) != 3 {
		t.Errorf("Max = %v", Max(xs))
	}
	even := []float64{1, 2, 3, 4}
	if Median(even) != 2.5 {
		t.Errorf("even Median = %v", Median(even))
	}
	// Median must not mutate its input.
	orig := []float64{9, 1, 5}
	Median(orig)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Error("Median mutated its input")
	}
	for _, f := range []func([]float64) float64{Mean, Median, Max} {
		if !math.IsNaN(f(nil)) {
			t.Error("empty-slice statistic should be NaN")
		}
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{1, 1, 1.5, 2}
	if got := FractionAtMost(xs, 1); got != 0.5 {
		t.Errorf("FractionAtMost(1) = %v", got)
	}
	if got := FractionAtMost(xs, 5); got != 1 {
		t.Errorf("FractionAtMost(5) = %v", got)
	}
	if !math.IsNaN(FractionAtMost(nil, 1)) {
		t.Error("empty slice should be NaN")
	}
}

func TestCDFProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10))
		}
		cdf := CDF(xs)
		// Monotone in X and P; last P == 1.
		for i := 1; i < len(cdf); i++ {
			if cdf[i].X <= cdf[i-1].X || cdf[i].P < cdf[i-1].P {
				return false
			}
		}
		if math.Abs(cdf[len(cdf)-1].P-1) > 1e-12 {
			return false
		}
		// CDFAt agrees with a direct count at each distinct value.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, pt := range cdf {
			count := 0
			for _, x := range xs {
				if x <= pt.X {
					count++
				}
			}
			if math.Abs(CDFAt(cdf, pt.X)-float64(count)/float64(n)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
	if CDFAt(nil, 5) != 0 {
		t.Error("CDFAt on empty CDF should be 0")
	}
	if got := CDFAt(CDF([]float64{1, 2}), 0.5); got != 0 {
		t.Errorf("CDFAt below min = %v", got)
	}
}

func TestHist2D(t *testing.T) {
	h := NewHist2D()
	if h.Total() != 0 || h.Fraction(0, 0) != 0 {
		t.Error("empty histogram not empty")
	}
	h.Add(1, 2)
	h.Add(1, 2)
	h.Add(-1, 0)
	h.Add(3, -2)
	if h.Total() != 4 || h.counts[[2]int{1, 2}] != 2 {
		t.Errorf("counts wrong: total %d, (1,2)=%d", h.Total(), h.counts[[2]int{1, 2}])
	}
	if h.Fraction(1, 2) != 0.5 {
		t.Errorf("Fraction = %v", h.Fraction(1, 2))
	}
	xmin, xmax, ymin, ymax := h.Bounds()
	if xmin != -1 || xmax != 3 || ymin != -2 || ymax != 2 {
		t.Errorf("Bounds = %d %d %d %d", xmin, xmax, ymin, ymax)
	}
	if got := h.FractionWhere(func(x, y int) bool { return x > 0 }); got != 0.75 {
		t.Errorf("FractionWhere = %v", got)
	}
	var e Hist2D
	_ = e
	empty := NewHist2D()
	a, b, c, d := empty.Bounds()
	if a != 0 || b != 0 || c != 0 || d != 0 {
		t.Error("empty bounds not zero")
	}
	if empty.FractionWhere(func(x, y int) bool { return true }) != 0 {
		t.Error("empty FractionWhere not zero")
	}
}
