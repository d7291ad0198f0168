package brute

import (
	"math"
	"testing"

	"ampsched/internal/core"
)

func task(wb, wl float64, rep bool) core.Task {
	return core.Task{Weight: core.Weights(wb, wl), Replicable: rep}
}

func TestEnumerateCountsPartitions(t *testing.T) {
	// 3 replicable tasks, 1 big core, 0 little: each of the 4 interval
	// partitions needs as many big cores as stages, so only the 1-stage
	// partition survives; with 2 big cores, partitions with ≤ 2 stages
	// and all core splits are visited.
	c := core.MustChain([]core.Task{task(1, 1, true), task(1, 1, true), task(1, 1, true)})
	count := 0
	Enumerate(c, core.Res(1, 0), func(core.Solution) { count++ })
	if count != 1 {
		t.Errorf("1 big core: %d solutions, want 1", count)
	}
	count = 0
	Enumerate(c, core.Res(2, 0), func(core.Solution) { count++ })
	// 1 stage with 1 or 2 cores (2) + 2-stage partitions ({1|23},{12|3})
	// with 1 core each (2) = 4.
	if count != 4 {
		t.Errorf("2 big cores: %d solutions, want 4", count)
	}
}

func TestEnumerateOnlyValidSolutions(t *testing.T) {
	c := core.MustChain([]core.Task{task(3, 6, false), task(2, 4, true)})
	r := core.Res(1, 2)
	Enumerate(c, r, func(s core.Solution) {
		if err := s.Validate(c, r); err != nil {
			t.Errorf("enumerated invalid solution %v: %v", s, err)
		}
	})
}

func TestMinPeriodKnown(t *testing.T) {
	// seq 10 | rep 8 8: big fast, little 2× slow. R=(1,2):
	// [seq]B (10) | [rep rep] on 2L (32/2=16) → 16 optimal.
	c := core.MustChain([]core.Task{
		task(10, 20, false), task(8, 16, true), task(8, 16, true),
	})
	if got := MinPeriod(c, core.Res(1, 2)); got != 16 {
		t.Errorf("MinPeriod = %v, want 16", got)
	}
	if got := MinPeriod(c, core.Resources{}); !math.IsInf(got, 1) {
		t.Errorf("MinPeriod no cores = %v, want +Inf", got)
	}
}
