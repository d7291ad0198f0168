package herad

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

func task(wb, wl float64, rep bool) core.Task {
	return core.Task{Weight: core.Weights(wb, wl), Replicable: rep}
}

func TestDegenerate(t *testing.T) {
	c := core.MustChain([]core.Task{task(5, 10, true)})
	if s := Schedule(nil, core.Res(1, 0)); !s.IsEmpty() {
		t.Error("nil chain")
	}
	if s := Schedule(c, core.Resources{}); !s.IsEmpty() {
		t.Error("no cores")
	}
	if s := Schedule(c, core.Res(-2, 1)); !s.IsEmpty() {
		t.Error("negative cores")
	}
}

func TestSingleTask(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 30, true)})
	s := Schedule(c, core.Res(2, 2))
	if err := s.Validate(c, core.Res(2, 2)); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if p := s.Period(c); p != 5 {
		t.Errorf("period = %v, want 5 (replicated on both big cores)", p)
	}
	// Sequential single task: period is its big-core weight, one core.
	cs := core.MustChain([]core.Task{task(10, 30, false)})
	ss := Schedule(cs, core.Res(2, 2))
	if p := ss.Period(cs); p != 10 {
		t.Errorf("seq period = %v, want 10", p)
	}
	b, l := ss.CoresUsed()
	if b != 1 || l != 0 {
		t.Errorf("seq usage = (%d,%d), want (1,0)", b, l)
	}
}

func TestLittlePreferredOnTies(t *testing.T) {
	// Equal weights on both types: the optimum must prefer little cores
	// (Lemma 1: ties solved in favor of little).
	c := core.MustChain([]core.Task{task(10, 10, false)})
	s := Schedule(c, core.Res(3, 3))
	if p := s.Period(c); p != 10 {
		t.Fatalf("period = %v", p)
	}
	b, l := s.CoresUsed()
	if b != 0 || l != 1 {
		t.Errorf("usage = (%d,%d), want (0,1): little preferred on tie", b, l)
	}
}

func TestKnownTwoStage(t *testing.T) {
	// seq 10 | rep 8 8 (16): with 1 big + 2 little (little = 2× slower):
	// optimal splits [seq] on big (10) and [rep,rep] on 2 little (32/2=16)
	// → period 16.
	c := core.MustChain([]core.Task{
		task(10, 20, false), task(8, 16, true), task(8, 16, true),
	})
	r := core.Res(1, 2)
	s := Schedule(c, r)
	if err := s.Validate(c, r); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if p := s.Period(c); p != 16 {
		t.Errorf("period = %v, want 16 (%v)", p, s)
	}
}

func TestPeriodHelper(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 20, false), task(8, 16, true)})
	r := core.Res(1, 1)
	if got, want := Period(c, r), Schedule(c, r).Period(c); got != want {
		t.Errorf("Period = %v, Schedule period = %v", got, want)
	}
	if p := Period(c, core.Resources{}); !math.IsInf(p, 1) {
		t.Errorf("Period with no cores = %v, want +Inf", p)
	}
}

// TestMatchesBruteForcePeriod cross-checks the fill against exhaustive
// enumeration for every type count the brute-force oracle can afford: the
// DP must reach the optimal period with a valid schedule on each.
func TestMatchesBruteForcePeriod(t *testing.T) {
	for _, tc := range []struct {
		k, iters, maxN, maxCores int
	}{
		{k: 1, iters: 60, maxN: 7, maxCores: 5},
		{k: 2, iters: 120, maxN: 7, maxCores: 3},
		{k: 3, iters: 60, maxN: 5, maxCores: 2},
	} {
		rng := rand.New(rand.NewSource(41))
		for iter := 0; iter < tc.iters; iter++ {
			tasks := make([]core.Task, 1+rng.Intn(tc.maxN))
			for i := range tasks {
				tasks[i] = randTask(rng, tc.k)
			}
			c := core.MustChain(tasks)
			counts := make([]int, tc.k)
			for v := range counts {
				counts[v] = rng.Intn(tc.maxCores + 1)
			}
			r := core.Res(counts...)
			if r.Total() == 0 {
				r = r.With(core.Big, 1)
			}
			want := brute.MinPeriod(c, r)
			s := Schedule(c, r)
			if err := s.Validate(c, r); err != nil {
				t.Fatalf("k=%d iter %d: invalid solution: %v (chain %v, R=%v)", tc.k, iter, err, c.Tasks(), r)
			}
			if got := s.Period(c); math.Abs(got-want) > 1e-9 {
				t.Fatalf("k=%d iter %d: HeRAD period %v, brute force %v\nchain=%+v R=%v sol=%v",
					tc.k, iter, got, want, c.Tasks(), r, s)
			}
		}
	}
}

// beats reports whether core usage (bN, lN) is strictly preferable to
// (bC, lC) under the paper's secondary objective (CompareCells, Algo 10):
// it either exchanges big cores for little ones, or uses no more cores of
// either type with at least one strict improvement. Case analysis shows
// both clauses together are exactly the strict lexicographic order on the
// (big, little) usage pair — the two-type instance of brute.BeatsVec.
func beats(bN, lN, bC, lC int) bool {
	return brute.BeatsVec([]int{bN, lN}, []int{bC, lC})
}

func TestBeatsRelation(t *testing.T) {
	cases := []struct {
		bN, lN, bC, lC int
		want           bool
	}{
		{0, 2, 1, 1, true},  // exchanges big for little
		{1, 1, 0, 2, false}, // reverse exchange is not better
		{1, 1, 1, 1, false}, // identical usage: not strictly better
		{1, 0, 1, 1, true},  // fewer little cores
		{0, 1, 1, 1, true},  // fewer big cores
		{2, 0, 1, 1, false}, // more big, fewer little: not an exchange
		{0, 5, 3, 1, true},  // strong exchange
		{2, 2, 1, 1, false}, // strictly more of both
	}
	for _, tc := range cases {
		if got := beats(tc.bN, tc.lN, tc.bC, tc.lC); got != tc.want {
			t.Errorf("beats(%d,%d vs %d,%d) = %v, want %v",
				tc.bN, tc.lN, tc.bC, tc.lC, got, tc.want)
		}
	}
}

// optimalUsages returns the optimal period of c on r and the (big, little)
// core usages of every solution that reaches it, by exhaustive enumeration.
func optimalUsages(c *core.Chain, r core.Resources) (period float64, usages [][2]int) {
	period = brute.MinPeriod(c, r)
	if math.IsInf(period, 1) {
		return period, nil
	}
	seen := map[[2]int]bool{}
	brute.Enumerate(c, r, func(s core.Solution) {
		if b, l := s.CoresUsed(); s.Period(c) <= period && !seen[[2]int{b, l}] {
			seen[[2]int{b, l}] = true
			usages = append(usages, [2]int{b, l})
		}
	})
	return period, usages
}

func TestOptimalUsages(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 10, false)})
	p, usages := optimalUsages(c, core.Res(1, 1))
	if p != 10 {
		t.Fatalf("period %v", p)
	}
	// Both a big and a little single core reach period 10.
	if len(usages) != 2 {
		t.Errorf("usages = %v, want both (1,0) and (0,1)", usages)
	}
	p, usages = optimalUsages(c, core.Resources{})
	if !math.IsInf(p, 1) || usages != nil {
		t.Errorf("no-core case: %v %v", p, usages)
	}
}

func TestSecondaryObjectiveNotDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(6)
		c := chaingen.Generate(chaingen.Default(n, 0.5), rng)
		r := core.Res(1+rng.Intn(3), 1+rng.Intn(3))
		s := scheduleRaw(c, r, Options{})
		p := s.Period(c)
		bH, lH := s.CoresUsed()
		period, usages := optimalUsages(c, r)
		if math.Abs(p-period) > 1e-9 {
			t.Fatalf("iter %d: period %v vs brute %v", iter, p, period)
		}
		for _, u := range usages {
			if beats(u[0], u[1], bH, lH) {
				t.Fatalf("iter %d: HeRAD usage (%d,%d) dominated by (%d,%d)\nchain=%+v R=%v sol=%v",
					iter, bH, lH, u[0], u[1], c.Tasks(), r, s)
			}
		}
	}
}

func TestMergePostPass(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 40; iter++ {
		c := chaingen.Generate(chaingen.Default(2+rng.Intn(10), 0.8), rng)
		r := core.Res(1+rng.Intn(4), 1+rng.Intn(4))
		raw := scheduleRaw(c, r, Options{})
		merged := Schedule(c, r)
		if math.Abs(raw.Period(c)-merged.Period(c)) > 1e-9 {
			t.Fatalf("merge changed period: %v -> %v", raw.Period(c), merged.Period(c))
		}
		if len(merged.Stages) > len(raw.Stages) {
			t.Fatalf("merge grew the pipeline: %d -> %d", len(raw.Stages), len(merged.Stages))
		}
		if err := merged.Validate(c, r); err != nil {
			t.Fatalf("merged invalid: %v", err)
		}
	}
}

func TestHomogeneousOnlyResources(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 30; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(8), 0.5), rng)
		for _, r := range []core.Resources{core.Res(3, 0), core.Res(0, 3)} {
			s := Schedule(c, r)
			if err := s.Validate(c, r); err != nil {
				t.Fatalf("invalid on %v: %v", r, err)
			}
			want := brute.MinPeriod(c, r)
			if got := s.Period(c); math.Abs(got-want) > 1e-9 {
				t.Fatalf("homogeneous %v: got %v want %v", r, got, want)
			}
		}
	}
}

func TestMonotoneInResources(t *testing.T) {
	// Adding cores never worsens the optimal period.
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 25; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(10), 0.5), rng)
		prev := math.Inf(1)
		for total := 1; total <= 6; total++ {
			p := Period(c, core.Res(total, total))
			if p > prev+1e-9 {
				t.Fatalf("period increased with more cores: %v -> %v", prev, p)
			}
			prev = p
		}
	}
}

func TestAllReplicableUsesEverything(t *testing.T) {
	// Fully replicable chain with identical per-type speeds: the optimum
	// is a single stage over all cores of the faster type plus stages on
	// the others — at minimum, period ≤ ΣwB/(b) and ≤ bound with both.
	c := core.MustChain([]core.Task{
		task(10, 20, true), task(10, 20, true), task(10, 20, true), task(10, 20, true),
	})
	r := core.Res(2, 2)
	s := Schedule(c, r)
	want := brute.MinPeriod(c, r)
	if got := s.Period(c); math.Abs(got-want) > 1e-9 {
		t.Errorf("period %v, brute %v (%v)", got, want, s)
	}
}

// TestZeroWeightStageTakesOneCore pins the fill's one documented deviation
// from Algo 8 (EXPERIMENTS "Known deviations"): a replicated stage that
// weighs 0 reaches its period, 0, on one core, and the seed takes that one
// core, as brute force does, instead of every core left.
func TestZeroWeightStageTakesOneCore(t *testing.T) {
	c := core.MustChain([]core.Task{task(0, 0, true)})
	want := []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Little}}
	for _, r := range []core.Resources{core.Res(2, 2), core.Res(3, 3), core.Res(0, 3)} {
		if got := Schedule(c, r); !slices.Equal(got.Stages, want) {
			t.Errorf("R=%v: %v, want %v", r, got, core.Solution{Stages: want})
		}
		if got := brute.Schedule(c, r, brute.Metrics{}); !slices.Equal(got.Stages, want) {
			t.Errorf("R=%v: brute force gives %v, want %v", r, got, core.Solution{Stages: want})
		}
	}
}
