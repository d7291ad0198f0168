package twocatac

import (
	"math"
	"math/rand"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/fertac"
	"ampsched/internal/herad"
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
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(20)
		sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
		c := chaingen.Generate(chaingen.Default(n, sr), rng)
		r := core.Res(rng.Intn(6), rng.Intn(6))
		if r.Total() == 0 {
			r = r.With(core.Big, 1)
		}
		s := Schedule(c, r)
		if s.IsEmpty() {
			t.Fatalf("iter %d: 2CATAC found no schedule for n=%d R=%v", iter, n, r)
		}
		if err := s.Validate(c, r); err != nil {
			t.Fatalf("iter %d: invalid schedule: %v", iter, err)
		}
	}
}

func TestNeverBeatsOptimalAndUsuallyBeatsFertac(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	wins, losses := 0, 0
	for iter := 0; iter < 80; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(15), 0.5), rng)
		r := core.Res(1+rng.Intn(6), 1+rng.Intn(6))
		opt := herad.Period(c, r)
		p2 := Schedule(c, r).Period(c)
		pf := fertac.Schedule(c, r).Period(c)
		if p2 < opt-1e-9 {
			t.Fatalf("2CATAC period %v below optimal %v", p2, opt)
		}
		if p2 <= pf+1e-9 {
			wins++
		} else {
			losses++
		}
	}
	// 2CATAC explores strictly more placements than FERTAC; the paper
	// reports it at or above FERTAC's quality in the vast majority of
	// cases. Allow a small number of losses (different greedy paths).
	if losses > wins/4 {
		t.Errorf("2CATAC lost to FERTAC too often: %d wins, %d losses", wins, losses)
	}
}

func TestChooseBestSolutionRules(t *testing.T) {
	none := Branch{}
	sB := Branch{Valid: true, Big: 1}    // (1B,0L)
	sL := Branch{Valid: true, Little: 1} // (0B,1L)
	for _, tc := range []struct {
		name   string
		sb, sl Branch
		keep   core.CoreType
		ok     bool
	}{
		{"only-valid B", sB, none, core.Big, true},
		{"only-valid L", none, sL, core.Little, true},
		{"two invalids", none, none, core.Big, false},
		// Better-exchange rule: (0B,1L) beats (1B,0L), from either slot.
		{"S_L exchanges", sB, sL, core.Little, true},
		{"S_B exchanges", Branch{Valid: true, Big: 1, Little: 2}, Branch{Valid: true, Big: 2, Little: 1}, core.Big, true},
		// Fewer-cores rule: no exchange, so fewer total cores wins.
		{"S_B fewer", sB, Branch{Valid: true, Big: 2}, core.Big, true},
		{"S_L fewer", Branch{Valid: true, Big: 2}, sB, core.Little, true},
		// A tie goes to S_L.
		{"tie", Branch{Valid: true, Big: 1, Little: 1}, Branch{Valid: true, Big: 1, Little: 1}, core.Little, true},
	} {
		if keep, ok := ChooseBestSolution(tc.sb, tc.sl); ok != tc.ok || (ok && keep != tc.keep) {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", tc.name, keep, ok, tc.keep, tc.ok)
		}
	}
}

func TestMatchesHeradOnEasyCases(t *testing.T) {
	// SR=0.2 with few little cores: the paper reports 2CATAC optimal in
	// ~100% of cases for R=(16,4). Check a miniature version.
	rng := rand.New(rand.NewSource(101))
	opt := 0
	total := 40
	for iter := 0; iter < total; iter++ {
		c := chaingen.Generate(chaingen.Default(10, 0.2), rng)
		r := core.Res(8, 2)
		p2 := Schedule(c, r).Period(c)
		ph := herad.Period(c, r)
		if p2 <= ph*1.0+1e-9 {
			opt++
		}
		if p2 > ph*1.5 {
			t.Fatalf("2CATAC %v vs optimal %v: worse than 1.5×", p2, ph)
		}
	}
	if float64(opt) < 0.7*float64(total) {
		t.Errorf("2CATAC optimal only %d/%d times on the easy scenario", opt, total)
	}
}

func TestMostlyLittleWhenLittleSuffice(t *testing.T) {
	// All-replicable chain with little cores only marginally slower and
	// many little cores available: solutions should spend little cores.
	var tasks []core.Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, task(10, 12, true))
	}
	c := core.MustChain(tasks)
	s := Schedule(c, core.Res(2, 8))
	if s.IsEmpty() {
		t.Fatal("no schedule")
	}
	_, l := s.CoresUsed()
	if l == 0 {
		t.Errorf("no little cores used at all: %v", s)
	}
	if math.IsInf(s.Period(c), 1) {
		t.Error("infinite period")
	}
}
