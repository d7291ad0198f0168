package fertac_test

// These tests hold FERTAC to HeRAD's optimum. HeRAD bounds its fill with
// FERTAC's period, so package herad imports fertac, and the tests live in
// the external test package to call herad.Period.

import (
	"math"
	"math/rand"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/fertac"
	"ampsched/internal/herad"
	"ampsched/internal/twocatac"
)

func TestNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 80; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(15), 0.5), rng)
		r := core.Res(1+rng.Intn(6), 1+rng.Intn(6))
		opt := herad.Period(c, r)
		got := fertac.Schedule(c, r).Period(c)
		if got < opt-1e-9 {
			t.Fatalf("FERTAC period %v below optimal %v", got, opt)
		}
	}
}

func TestOptimalWhenAbundantResources(t *testing.T) {
	// With a single dominant sequential task and many cores, every
	// strategy should reach the sequential lower bound.
	rng := rand.New(rand.NewSource(79))
	for iter := 0; iter < 30; iter++ {
		c := chaingen.Generate(chaingen.Default(10, 0.2), rng)
		r := core.Res(32, 32)
		got := fertac.Schedule(c, r).Period(c)
		opt := herad.Period(c, r)
		if math.Abs(got-opt) > opt*0.25+1e-9 {
			t.Errorf("iter %d: FERTAC %v vs optimal %v (>25%% off with abundant cores)",
				iter, got, opt)
		}
	}
}

// Inverted/mixed-speed platforms (paper footnote 1): the greedy
// heuristics must stay valid and never beat the optimum even when tasks
// run faster on little cores.

func mixedChain(rng *rand.Rand, n int) *core.Chain {
	tasks := make([]core.Task, n)
	for i := range tasks {
		wb := 1 + float64(rng.Intn(60))
		wl := wb
		switch rng.Intn(3) {
		case 0:
			wl = math.Ceil(wb * (1 + 2*rng.Float64()))
		case 1:
			wl = math.Ceil(wb / (1 + 2*rng.Float64()))
		}
		tasks[i] = core.Task{
			Weight:     core.Weights(wb, wl),
			Replicable: rng.Intn(2) == 0,
		}
	}
	return core.MustChain(tasks)
}

func TestHeuristicsValidOnMixedSpeedPlatforms(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for iter := 0; iter < 120; iter++ {
		c := mixedChain(rng, 1+rng.Intn(16))
		r := core.Res(1+rng.Intn(5), 1+rng.Intn(5))
		opt := herad.Period(c, r)
		for name, s := range map[string]core.Solution{
			"FERTAC": fertac.Schedule(c, r),
			"2CATAC": twocatac.Schedule(c, r),
		} {
			if s.IsEmpty() {
				t.Fatalf("iter %d: %s found no schedule", iter, name)
			}
			if err := s.Validate(c, r); err != nil {
				t.Fatalf("iter %d: %s invalid: %v", iter, name, err)
			}
			if p := s.Period(c); p < opt-1e-9 {
				t.Fatalf("iter %d: %s period %v beats optimum %v", iter, name, p, opt)
			}
		}
	}
}
