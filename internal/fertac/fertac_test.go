package fertac

import (
	"math/rand"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

func task(wb, wl float64, rep bool) core.Task {
	return core.Task{Weight: core.Weights(wb, wl), Replicable: rep}
}

func TestDegenerate(t *testing.T) {
	c := core.MustChain([]core.Task{task(5, 10, true)})
	if s := Schedule(nil, core.Res(1, 0)); !s.IsEmpty() {
		t.Error("nil chain should be empty")
	}
	if s := Schedule(c, core.Resources{}); !s.IsEmpty() {
		t.Error("no cores should be empty")
	}
}

func TestAlwaysProducesValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(25)
		sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
		c := chaingen.Generate(chaingen.Default(n, sr), rng)
		r := core.Res(rng.Intn(8), rng.Intn(8))
		if r.Total() == 0 {
			r = r.With(core.Little, 1)
		}
		s := Schedule(c, r)
		if s.IsEmpty() {
			t.Fatalf("iter %d: FERTAC found no schedule for n=%d R=%v", iter, n, r)
		}
		if err := s.Validate(c, r); err != nil {
			t.Fatalf("iter %d: invalid schedule: %v", iter, err)
		}
	}
}

func TestLittleFirstPreference(t *testing.T) {
	// Two identical sequential tasks, plenty of both core types, little
	// cores fast enough: FERTAC must place the first stage on little.
	c := core.MustChain([]core.Task{task(10, 10, false), task(10, 10, false)})
	s := Schedule(c, core.Res(2, 2))
	if s.IsEmpty() {
		t.Fatal("no schedule")
	}
	if s.Stages[0].Type != core.Little {
		t.Errorf("first stage on %v, want Little: %v", s.Stages[0].Type, s)
	}
	if p := s.Period(c); p != 10 {
		t.Errorf("period %v, want 10", p)
	}
}

func TestBigUsedWhenLittleTooSlow(t *testing.T) {
	// One sequential task that is 10× slower on little: any target close
	// to the optimum forces a big core.
	c := core.MustChain([]core.Task{task(10, 100, false)})
	s := Schedule(c, core.Res(1, 1))
	if s.IsEmpty() {
		t.Fatal("no schedule")
	}
	if s.Stages[0].Type != core.Big {
		t.Errorf("stage on %v, want Big", s.Stages[0].Type)
	}
	if p := s.Period(c); p != 10 {
		t.Errorf("period %v, want 10", p)
	}
}

func TestComputeSolutionRespectsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 100; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(12), 0.5), rng)
		r := core.Res(1+rng.Intn(4), 1+rng.Intn(4))
		target := 50 + float64(rng.Intn(500))
		s := computeSolution(c, r, target, Metrics{}, nil)
		if s.IsEmpty() {
			continue // the greedy may legitimately fail for tight targets
		}
		if !s.IsValid(c, r, target) {
			t.Fatalf("iter %d: computeSolution returned an invalid solution (P=%v): %v",
				iter, s.Period(c), s)
		}
		if err := s.Validate(c, r); err != nil {
			t.Fatalf("iter %d: structural: %v", iter, err)
		}
	}
}

func TestHomogeneousFallbackToBigOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 40; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(10), 0.5), rng)
		s := Schedule(c, core.Res(4, 0))
		if s.IsEmpty() {
			t.Fatal("big-only schedule missing")
		}
		for _, st := range s.Stages {
			if st.Type != core.Big {
				t.Fatalf("little stage on a big-only platform: %v", s)
			}
		}
	}
}
