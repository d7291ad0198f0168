package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ampsched/internal/core"
)

func task(wb, wl float64, rep bool) core.Task {
	return core.Task{Weight: core.Weights(wb, wl), Replicable: rep}
}

func randChain(rng *rand.Rand, n int) *core.Chain {
	tasks := make([]core.Task, n)
	for i := range tasks {
		wb := 1 + float64(rng.Intn(100))
		wl := math.Ceil(wb * (1 + 4*rng.Float64()))
		tasks[i] = task(wb, wl, rng.Intn(2) == 0)
	}
	return core.MustChain(tasks)
}

func TestMaxPackingBasics(t *testing.T) {
	c := core.MustChain([]core.Task{
		task(5, 5, true), task(5, 5, true), task(5, 5, true), task(100, 100, true),
	})
	if got := MaxPacking(c, 0, 1, core.Big, 10); got != 1 {
		t.Errorf("MaxPacking 1 core target 10 = %d, want 1", got)
	}
	if got := MaxPacking(c, 0, 1, core.Big, 15); got != 2 {
		t.Errorf("MaxPacking target 15 = %d, want 2", got)
	}
	if got := MaxPacking(c, 0, 2, core.Big, 10); got != 2 {
		t.Errorf("MaxPacking 2 cores target 10 = %d, want 2 (15/2 ≤ 10)", got)
	}
	// Even an oversized first task returns s itself.
	if got := MaxPacking(c, 3, 1, core.Big, 1); got != 3 {
		t.Errorf("MaxPacking oversized = %d, want 3", got)
	}
	// Zero cores: nothing fits, still returns s.
	if got := MaxPacking(c, 0, 0, core.Big, 1000); got != 0 {
		t.Errorf("MaxPacking 0 cores = %d, want 0", got)
	}
}

func TestMaxPackingSequentialBoundary(t *testing.T) {
	// A sequential task inside the interval forces the full (undivided) sum.
	c := core.MustChain([]core.Task{
		task(4, 4, true), task(4, 4, true), task(4, 4, false), task(1, 1, true),
	})
	// With 2 cores and target 5: [0,1] weighs 8/2=4 ≤ 5; adding the
	// sequential task makes the stage weigh 12 > 5.
	if got := MaxPacking(c, 0, 2, core.Big, 5); got != 1 {
		t.Errorf("MaxPacking across seq boundary = %d, want 1", got)
	}
	// With target 13 the whole prefix fits sequentially (12 ≤ 13) and the
	// replicable tail keeps it at 13/1... (13 ≤ 13).
	if got := MaxPacking(c, 0, 1, core.Big, 13); got != 3 {
		t.Errorf("MaxPacking target 13 = %d, want 3", got)
	}
}

func TestMaxPackingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		c := randChain(rng, 1+rng.Intn(12))
		s := rng.Intn(c.Len())
		cores := rng.Intn(4)
		target := 1 + float64(rng.Intn(300))
		v := core.CoreType(rng.Intn(2))
		e := MaxPacking(c, s, cores, v, target)
		if e < s || e >= c.Len() {
			return false
		}
		// Result is maximal: either the stage fits, or it is the bare
		// minimum s; and extending by one task must not fit.
		fits := c.Weight(s, e, cores, v) <= target
		if !fits && e != s {
			return false
		}
		if e+1 < c.Len() && c.Weight(s, e+1, cores, v) <= target {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// maxPackingLinear is the pre-binary-search implementation of MaxPacking
// (the paper-literal scan), kept as the differential oracle for the
// O(log n) version. Its break path needs one success after s, so an
// oversized first task makes it walk the whole tail — the inefficiency the
// rewrite removed — but its results are definitionally correct.
func maxPackingLinear(c *core.Chain, s, cores int, v core.CoreType, target float64) int {
	e := s
	for i := s; i < c.Len(); i++ {
		if c.Weight(s, i, cores, v) <= target {
			e = i
		} else if i > s {
			break
		}
	}
	return e
}

// TestMaxPackingMatchesLinearOracle pins the binary search to the linear
// oracle on 10k random (chain, start, cores, type, target) tuples,
// including the oversized-first-task and zero-core edge cases and targets
// that land exactly on stage weights.
func TestMaxPackingMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20250806))
	for iter := 0; iter < 10000; iter++ {
		c := randChain(rng, 1+rng.Intn(24))
		s := rng.Intn(c.Len())
		cores := rng.Intn(5) // 0 exercises the +Inf weight path
		v := core.CoreType(rng.Intn(2))
		var target float64
		switch rng.Intn(4) {
		case 0: // tiny: even task s alone may not fit
			target = float64(rng.Intn(3))
		case 1: // exact stage weight: ties on the ≤ boundary
			e := s + rng.Intn(c.Len()-s)
			target = c.Weight(s, e, max(cores, 1), v)
		case 2: // huge: the whole tail fits
			target = c.TotalW(v) + 1
		default:
			target = 1 + float64(rng.Intn(400))
		}
		want := maxPackingLinear(c, s, cores, v, target)
		got := MaxPacking(c, s, cores, v, target)
		if got != want {
			t.Fatalf("iter %d: MaxPacking(s=%d cores=%d %v target=%v) = %d, oracle %d\nchain=%+v",
				iter, s, cores, v, target, got, want, c.Tasks())
		}
	}
}

func TestRequiredCores(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 20, true), task(10, 20, true)})
	if got := RequiredCores(c, 0, 1, core.Big, 10); got != 2 {
		t.Errorf("RequiredCores = %d, want 2", got)
	}
	if got := RequiredCores(c, 0, 1, core.Big, 7); got != 3 {
		t.Errorf("RequiredCores = %d, want 3 (⌈20/7⌉)", got)
	}
	if got := RequiredCores(c, 0, 1, core.Little, 10); got != 4 {
		t.Errorf("RequiredCores little = %d, want 4", got)
	}
	if got := RequiredCores(c, 0, 0, core.Big, 1000); got != 1 {
		t.Errorf("RequiredCores clamps to ≥ 1, got %d", got)
	}
}

func TestComputeStageSimple(t *testing.T) {
	// Replicable run [0..2] (30 total) followed by a sequential task.
	c := core.MustChain([]core.Task{
		task(10, 10, true), task(10, 10, true), task(10, 10, true), task(10, 10, false),
	})
	// Target 10, 3 cores: greedy packs task 0 alone, extends across the
	// replicable run to task 2, needs ⌈30/10⌉=3 cores; leaving one core
	// would need the moved tail + the next sequential task to fit in one
	// core: w([f+1, 3]) with f=MaxPacking(2 cores)=1 → w([2,3])=20 > 10,
	// so the stage keeps 3 cores.
	e, u := ComputeStageM(c, 0, 3, core.Big, 10, Metrics{})
	if e != 2 || u != 3 {
		t.Errorf("ComputeStage = (%d,%d), want (2,3)", e, u)
	}
	// With only 2 cores available the stage shrinks to what 2 cores pack.
	e, u = ComputeStageM(c, 0, 2, core.Big, 10, Metrics{})
	if e != 1 || u != 2 {
		t.Errorf("ComputeStage capped = (%d,%d), want (1,2)", e, u)
	}
}

func TestComputeStageLeavesCoreForNextStage(t *testing.T) {
	// Replicable run [10,10,5] followed by a sequential 5: with target 10
	// the full run needs ⌈25/10⌉=3 cores, but two cores pack [10,10]
	// (20/2=10) and the remainder [5 rep + 5 seq] fits a single core of
	// the next stage, so the stage is trimmed to save one core.
	c := core.MustChain([]core.Task{
		task(10, 10, true), task(10, 10, true), task(5, 5, true), task(5, 5, false),
	})
	e, u := ComputeStageM(c, 0, 4, core.Big, 10, Metrics{})
	if e != 1 || u != 2 {
		t.Errorf("ComputeStage = (%d,%d), want (1,2): should save a core", e, u)
	}
	// Same chain but a heavier trailing sequential task: the remainder
	// would not fit one core, so the stage keeps all three cores.
	c2 := core.MustChain([]core.Task{
		task(10, 10, true), task(10, 10, true), task(5, 5, true), task(9, 9, false),
	})
	e, u = ComputeStageM(c2, 0, 4, core.Big, 10, Metrics{})
	if e != 2 || u != 3 {
		t.Errorf("ComputeStage = (%d,%d), want (2,3): trim must not fire", e, u)
	}
}

func TestComputeStageFinalStage(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 10, true), task(10, 10, true)})
	e, u := ComputeStageM(c, 0, 4, core.Big, 5, Metrics{})
	if e != 1 || u != 4 {
		t.Errorf("final replicable stage = (%d,%d), want (1,4)", e, u)
	}
	// MaxPacking with one core can already reach the end: e == n-1 short-circuits.
	e, u = ComputeStageM(c, 0, 4, core.Big, 20, Metrics{})
	if e != 1 || u != 1 {
		t.Errorf("relaxed target = (%d,%d), want (1,1)", e, u)
	}
}

func TestComputeStageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		c := randChain(rng, 1+rng.Intn(15))
		s := rng.Intn(c.Len())
		avail := 1 + rng.Intn(6)
		target := 1 + float64(rng.Intn(400))
		v := core.CoreType(rng.Intn(2))
		e, u := ComputeStageM(c, s, avail, v, target, Metrics{})
		if e < s || e >= c.Len() || u < 1 {
			return false
		}
		// If the stage meets the target with u ≤ avail, it must really fit.
		if u <= avail && c.Weight(s, e, u, v) <= target {
			// Maximality: the same u cores cannot also absorb task e+1,
			// unless the algorithm deliberately trimmed the stage to save
			// a core (in which case the next interval ends with a
			// 1-core-feasible remainder).
			if e+1 < c.Len() && c.Weight(s, e+1, u, v) <= target {
				rest := c.IsRep(s, e)
				if !rest {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDefaultBounds(t *testing.T) {
	c := core.MustChain([]core.Task{
		task(10, 20, false), task(30, 60, true), task(20, 45, false),
	})
	b := DefaultBounds(c, core.Res(2, 2))
	// Lower bound: max(60/4, 20) = 20 (largest sequential big weight).
	if b.Min != 20 {
		t.Errorf("Min = %v, want 20", b.Min)
	}
	// Upper bound adds the largest worst-type task weight (60).
	if b.Max != 80 {
		t.Errorf("Max = %v, want 80", b.Max)
	}
	if b.Eps != 0.25 {
		t.Errorf("Eps = %v, want 1/4", b.Eps)
	}
	// Little-only platform must use little weights.
	bl := DefaultBounds(c, core.Res(0, 5))
	if bl.Min != 45 {
		t.Errorf("little-only Min = %v, want 45", bl.Min)
	}
}

func TestScheduleDegenerate(t *testing.T) {
	c := core.MustChain([]core.Task{task(1, 2, true)})
	if s := Schedule(nil, core.Res(1, 0), nil); !s.IsEmpty() {
		t.Error("nil chain should yield empty solution")
	}
	if s := Schedule(c, core.Resources{}, nil); !s.IsEmpty() {
		t.Error("no resources should yield empty solution")
	}
	if s := Schedule(c, core.Res(-1, 2), nil); !s.IsEmpty() {
		t.Error("negative resources should yield empty solution")
	}
}

func TestScheduleBinarySearchConverges(t *testing.T) {
	// A trivial compute function: whole chain in one big-core stage.
	c := core.MustChain([]core.Task{task(10, 20, false), task(10, 20, false)})
	all := func(ch *core.Chain, r core.Resources, target float64, _ []core.Stage) core.Solution {
		return core.Solution{Stages: []core.Stage{{Start: 0, End: ch.Len() - 1, Cores: 1, Type: core.Big}}}
	}
	got := Schedule(c, core.Res(1, 0), all)
	if got.IsEmpty() {
		t.Fatal("expected a solution")
	}
	if p := got.Period(c); p != 20 {
		t.Errorf("period = %v, want 20", p)
	}
}

func TestScheduleFallbackUpperBound(t *testing.T) {
	// A compute function that only succeeds at a period far above the
	// paper's default upper bound, exercising the robustness fallback.
	c := core.MustChain([]core.Task{
		task(10, 10, false), task(10, 10, false), task(10, 10, false),
	})
	needed := c.TotalW(core.Big) // 30; default upper bound is 10+... < 30? Min=max(30/1,10)=30.
	// With a single big core, Min is already 30, so instead force failure
	// below 30 and success at ≥ 30 with two cores where Min = 15, Max = 25.
	r := core.Res(2, 0)
	fn := func(ch *core.Chain, res core.Resources, target float64, _ []core.Stage) core.Solution {
		if target < needed {
			return core.Solution{}
		}
		return core.Solution{Stages: []core.Stage{{Start: 0, End: 2, Cores: 1, Type: core.Big}}}
	}
	got := Schedule(c, r, fn)
	if got.IsEmpty() {
		t.Fatal("fallback upper bound did not rescue the search")
	}
	if p := got.Period(c); p != 30 {
		t.Errorf("period = %v, want 30", p)
	}
}

// TestScheduleCopiesKeptSchedule holds the search to keeping a copy of
// each valid schedule: the fake compute builds its one valid schedule in
// the probe buffer, then fills the buffer with garbage on every later
// probe. A search that kept the probe buffer itself would return garbage.
func TestScheduleCopiesKeptSchedule(t *testing.T) {
	// Min = 1, Max = 2, Eps = 0.1: the first probe (1.5) is valid, and
	// three more follow it.
	c := core.MustChain([]core.Task{task(1, 1, false), task(0.5, 0.5, false)})
	calls, valid := 0, false
	fake := func(ch *core.Chain, r core.Resources, target float64, buf []core.Stage) core.Solution {
		calls++
		if !valid && target >= 1.5 {
			valid = true
			return core.Solution{Stages: append(buf, core.Stage{Start: 0, End: 1, Cores: 1, Type: core.Big})}
		}
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = core.Stage{Start: 1, End: 0, Cores: 7, Type: core.Little}
		}
		return core.Solution{}
	}
	got := Schedule(c, core.Res(10, 0), fake)
	if want := "(2,1B)"; got.String() != want {
		t.Errorf("schedule %s, want %s", got, want)
	}
	if calls < 2 {
		t.Errorf("%d probes, want the valid one and at least one after it", calls)
	}
}

// TestScheduleKeepsGrownBuffer holds the search to passing a buffer that a
// probe grew, and handed back in an empty result, to the next probe.
func TestScheduleKeepsGrownBuffer(t *testing.T) {
	c := core.MustChain([]core.Task{task(1, 1, false), task(0.5, 0.5, false)})
	var grown []core.Stage
	calls := 0
	fake := func(ch *core.Chain, r core.Resources, target float64, buf []core.Stage) core.Solution {
		calls++
		if len(buf) != 0 {
			t.Fatalf("probe %d: buffer of length %d, want 0", calls, len(buf))
		}
		if calls == 1 {
			grown = append(buf[:cap(buf)], core.Stage{})
			return core.Solution{Stages: grown[:0]}
		}
		if cap(buf) != cap(grown) || &buf[:1][0] != &grown[0] {
			t.Fatalf("probe %d: buffer of capacity %d, want the grown one of %d", calls, cap(buf), cap(grown))
		}
		if calls != 3 {
			return core.Solution{}
		}
		return core.Solution{Stages: append(buf, core.Stage{Start: 0, End: 1, Cores: 1, Type: core.Big})}
	}
	// Min = 1, Max = 2, Eps = 0.1: probes at 1.5, 1.75 and 1.875, the
	// third valid, so the search ends without the fallback (which starts a
	// buffer of its own).
	if got, want := Schedule(c, core.Res(10, 0), fake).String(), "(2,1B)"; got != want {
		t.Errorf("schedule %s, want %s", got, want)
	}
	if calls != 3 {
		t.Errorf("%d probes, want 3", calls)
	}
}
