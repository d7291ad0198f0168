package herad

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
)

// scratchOracle is the planner's correctness oracle: the from-scratch fill
// of the planner's current chain under its own options.
func scratchOracle(t *testing.T, p *Planner) core.Solution {
	t.Helper()
	return ScheduleOpts(p.Chain(), p.Resources(), p.o)
}

func checkAgainstScratch(t *testing.T, p *Planner, step string) {
	t.Helper()
	got := p.Solution()
	want := scratchOracle(t, p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: planner diverged from from-scratch\n got %v\nwant %v\nchain=%+v",
			step, got, want, p.Chain().Tasks())
	}
	if err := got.Validate(p.Chain(), p.Resources()); err != nil {
		t.Fatalf("%s: invalid planner solution: %v", step, err)
	}
}

// randTask draws a task compatible with k core types.
func randTask(rng *rand.Rand, k int) core.Task {
	w := make([]float64, k)
	for v := range w {
		w[v] = 1 + 99*rng.Float64()
	}
	return core.Task{Weight: w, Replicable: rng.Intn(2) == 0}
}

// TestPlannerEditSequence drives random Append/Remove/Reweigh sequences
// and checks after every edit that the planner's solution is bit-identical
// to scheduling the edited chain from scratch — on a two-type and a
// three-type platform.
// This is the row-reuse invariant of the Planner under fire.
func TestPlannerEditSequence(t *testing.T) {
	cases := []struct {
		name string
		k    int
		r    core.Resources
		o    Options
	}{
		{"general2d", 2, core.Res(3, 4), Options{}},
		{"ktype3", 3, core.Res(2, 2, 3), Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101 + int64(tc.k)))
			tasks := make([]core.Task, 6+rng.Intn(8))
			for i := range tasks {
				tasks[i] = randTask(rng, tc.k)
			}
			p, err := NewPlanner(core.MustChain(tasks), tc.r, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.RowsRefilled(), p.Chain().Len(); got != want {
				t.Fatalf("initial fill refilled %d rows, want %d", got, want)
			}
			checkAgainstScratch(t, p, "initial")
			for step := 0; step < 40; step++ {
				n := p.Chain().Len()
				switch op := rng.Intn(3); {
				case op == 0 || n == 1:
					if err := p.Append(randTask(rng, tc.k)); err != nil {
						t.Fatalf("step %d append: %v", step, err)
					}
					if p.RowsRefilled() != 1 {
						t.Fatalf("step %d: append refilled %d rows, want 1", step, p.RowsRefilled())
					}
				case op == 1:
					i := rng.Intn(n)
					if err := p.Remove(i); err != nil {
						t.Fatalf("step %d remove %d: %v", step, i, err)
					}
					if want := n - 1 - i; p.RowsRefilled() != want {
						t.Fatalf("step %d: remove %d of %d refilled %d rows, want %d",
							step, i, n, p.RowsRefilled(), want)
					}
				default:
					i := rng.Intn(n)
					if err := p.Reweigh(i, randTask(rng, tc.k)); err != nil {
						t.Fatalf("step %d reweigh %d: %v", step, i, err)
					}
					if want := n - i; p.RowsRefilled() != want {
						t.Fatalf("step %d: reweigh %d of %d refilled %d rows, want %d",
							step, i, n, p.RowsRefilled(), want)
					}
				}
				checkAgainstScratch(t, p, "edit")
			}
		})
	}
}

// TestPlannerRebase pins the warm-start diff: rebasing onto a chain
// sharing a prefix refills only the suffix, an identical chain refills
// nothing, and the result always matches from scratch.
func TestPlannerRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 30; iter++ {
		c := chaingen.Generate(chaingen.Default(10+rng.Intn(10), 0.5), rng)
		r := core.Res(3, 3)
		p, err := NewPlanner(c, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Same tasks, fresh chain value: nothing to refill.
		clone := core.MustChain(c.Tasks())
		if err := p.Rebase(clone); err != nil {
			t.Fatal(err)
		}
		if p.RowsRefilled() != 0 {
			t.Fatalf("identical rebase refilled %d rows", p.RowsRefilled())
		}
		checkAgainstScratch(t, p, "identical rebase")
		// Divergence at a random index: refill exactly the suffix.
		tasks := c.Tasks()
		i := rng.Intn(len(tasks))
		tasks[i] = randTask(rng, 2)
		edited := core.MustChain(tasks)
		if err := p.Rebase(edited); err != nil {
			t.Fatal(err)
		}
		if want := edited.Len() - i; p.RowsRefilled() != want {
			t.Fatalf("rebase diverging at %d refilled %d rows, want %d", i, p.RowsRefilled(), want)
		}
		checkAgainstScratch(t, p, "diverging rebase")
		// A longer chain sharing the full prefix: refill the added rows.
		longer := core.MustChain(append(edited.Tasks(), randTask(rng, 2), randTask(rng, 2)))
		if err := p.Rebase(longer); err != nil {
			t.Fatal(err)
		}
		if p.RowsRefilled() != 2 {
			t.Fatalf("extending rebase refilled %d rows, want 2", p.RowsRefilled())
		}
		checkAgainstScratch(t, p, "extending rebase")
		// A shorter chain (pure truncation): valid and consistent.
		shorter := core.MustChain(longer.Tasks()[:3])
		if err := p.Rebase(shorter); err != nil {
			t.Fatal(err)
		}
		checkAgainstScratch(t, p, "truncating rebase")
	}
}

// TestPlannerRejectsBadInputs pins the error contract: constructor and
// edits reject inputs that would leave the planner unschedulable, and a
// rejected edit leaves the planner's state untouched.
func TestPlannerRejectsBadInputs(t *testing.T) {
	if _, err := NewPlanner(nil, core.Res(1, 1), Options{}); err == nil {
		t.Error("nil chain accepted")
	}
	c := core.MustChain([]core.Task{task(10, 20, false), task(8, 16, true)})
	if _, err := NewPlanner(c, core.Resources{}, Options{}); err == nil {
		t.Error("empty resources accepted")
	}
	if _, err := NewPlanner(c, core.Res(-1, 2), Options{}); err == nil {
		t.Error("negative resources accepted")
	}
	p, err := NewPlanner(c, core.Res(2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := p.Solution()
	if err := p.Remove(5); err == nil {
		t.Error("out-of-range remove accepted")
	}
	if err := p.Reweigh(-1, task(1, 2, false)); err == nil {
		t.Error("out-of-range reweigh accepted")
	}
	if err := p.Reweigh(0, core.Task{Weight: []float64{1, 2, 3}}); err == nil {
		t.Error("type-table mismatch accepted")
	}
	if err := p.Rebase(nil); err == nil {
		t.Error("nil rebase accepted")
	}
	if got := p.Solution(); !reflect.DeepEqual(got, before) {
		t.Errorf("rejected edits mutated the planner: %v vs %v", got, before)
	}
	single, err := NewPlanner(core.MustChain([]core.Task{task(5, 9, true)}), core.Res(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Remove(0); err == nil {
		t.Error("removing the only task accepted")
	}
}

// TestPlannerPeriod pins the Period accessor against the solution.
func TestPlannerPeriod(t *testing.T) {
	c := chaingen.GenerateMany(chaingen.Default(12, 0.5), 5, 1)[0]
	p, err := NewPlanner(c, core.Res(3, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Period(), p.Solution().Period(c); got != want {
		t.Errorf("Period() = %v, Solution().Period = %v", got, want)
	}
}

// TestRefillAllocatesNothing pins the cost model of an edit: refilling rows
// of a retained matrix runs entirely on the stack and in the matrix — the
// exact fill allocates nothing per refill, per row or per cell.
func TestRefillAllocatesNothing(t *testing.T) {
	c := chaingen.GenerateMany(chaingen.Default(32, 0.5), 5, 1)[0]
	m := newMatrix(c.Len(), core.Res(3, 3))
	m.fill(c, math.Inf(1), Metrics{})
	if a := testing.AllocsPerRun(20, func() { m.fillRows(c, c.Len()-4, c.Len(), math.Inf(1), Metrics{}) }); a != 0 {
		t.Errorf("refilling 5 rows allocates %v times, want 0", a)
	}
}

// TestEditVisitsNoMoreThanCold pins what an edit costs in the planner's own
// deterministic currency, not by wall clock: a Reweigh at task i recomputes
// no more DP cells and evaluates no more candidates than a cold NewPlanner
// on the edited chain — exactly as many at i = 0, where every row is
// refilled through the same fillRows.
func TestEditVisitsNoMoreThanCold(t *testing.T) {
	const n = 256
	c := chaingen.GenerateMany(chaingen.Default(n, 0.5), 23, 1)[0]
	r := core.Res(4, 4)
	for _, i := range []int{0, n / 4, n / 2, n - 1} {
		warm := MetricsFrom(obs.NewRegistry())
		p, err := NewPlanner(c, r, Options{Metrics: warm})
		if err != nil {
			t.Fatal(err)
		}
		cells, candidates := warm.DPCells.Value(), warm.DPCandidates.Value()
		old := c.Task(i)
		if err := p.Reweigh(i, task(old.Weight[0]*1.5, old.Weight[1]*0.75, old.Replicable)); err != nil {
			t.Fatal(err)
		}
		cells, candidates = warm.DPCells.Value()-cells, warm.DPCandidates.Value()-candidates

		cold := MetricsFrom(obs.NewRegistry())
		if _, err := NewPlanner(p.Chain(), r, Options{Metrics: cold}); err != nil {
			t.Fatal(err)
		}
		coldCells, coldCandidates := cold.DPCells.Value(), cold.DPCandidates.Value()
		if cells > coldCells || candidates > coldCandidates || i == 0 && (cells != coldCells || candidates != coldCandidates) {
			t.Errorf("reweigh at %d: %d cells, %d candidates; cold plan of the edited chain: %d cells, %d candidates",
				i, cells, candidates, coldCells, coldCandidates)
		}
		if i > 0 && cells >= coldCells {
			t.Errorf("reweigh at %d recomputed %d cells, all %d of a cold plan", i, cells, coldCells)
		}
	}
}
