package twocatac

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/platform"
	"ampsched/internal/sched"
	"ampsched/internal/trace"
)

// The reference recursion is Algo 5 as it stood before the branches of a
// probe shared the search's stage buffer: every node builds both branches as fresh
// solutions, prepending its stage to a copy of the child's, and Algo 6
// re-validates them with Solution.IsValid. Schedule is held to it stage for
// stage, node for node and journal event for journal event.

// referenceCompute returns the reference recursion as a
// sched.ComputeSolutionFunc reporting into m.
func referenceCompute(m Metrics) sched.ComputeSolutionFunc {
	return func(ch *core.Chain, res core.Resources, target float64, _ []core.Stage) core.Solution {
		return referenceComputeSolution(ch, 0, res, target, m)
	}
}

func referenceComputeSolution(c *core.Chain, s int, r core.Resources, target float64, m Metrics) core.Solution {
	m.Nodes.Inc()
	var sols [2]core.Solution
	for _, v := range []core.CoreType{core.Big, core.Little} {
		e, u := sched.ComputeStageM(c, s, r.Count(v), v, target, m.Sched)
		switch {
		case u < 1 || u > r.Count(v) || c.Weight(s, e, u, v) > target:
			// no valid stage with this type of cores
		case e == c.Len()-1:
			sols[v] = core.Solution{Stages: []core.Stage{{Start: s, End: e, Cores: u, Type: v}}}
		default:
			rest := referenceComputeSolution(c, e+1, r.Consume(v, u), target, m)
			if rest.IsValid(c, r.Consume(v, u), target) {
				sols[v] = prepend(core.Stage{Start: s, End: e, Cores: u, Type: v}, rest)
			}
		}
	}
	best := referenceChooseBestSolution(c, sols[core.Big], sols[core.Little], r, target)
	if m.Sched.Trace.Enabled() {
		ev := m.Sched.Trace.Event("node").Int("first_task", s).
			Int("big", r.Count(core.Big)).Int("little", r.Count(core.Little)).
			Bool("big_valid", sols[core.Big].IsValid(c, r, target)).
			Bool("little_valid", sols[core.Little].IsValid(c, r, target))
		if !best.IsEmpty() {
			ev.Str("chosen", best.Stages[0].Type.String())
		}
	}
	return best
}

// referenceChooseBestSolution is Algo 6 on whole solutions.
func referenceChooseBestSolution(c *core.Chain, sb, sl core.Solution, r core.Resources, target float64) core.Solution {
	validB := sb.IsValid(c, r, target)
	validL := sl.IsValid(c, r, target)
	switch {
	case validB && validL:
		bB, lB := sb.CoresUsed() // usage of the solution whose first stage is Big
		bL, lL := sl.CoresUsed()
		switch {
		case lB > lL && bB < bL:
			return sb // S_B makes better usage of little cores
		case lB < lL && bB > bL:
			return sl // S_L makes better usage of little cores
		case lB+bB < lL+bL:
			return sb // S_B uses fewer cores
		default:
			return sl // S_L uses fewer cores
		}
	case validB:
		return sb
	case validL:
		return sl
	default:
		return core.Solution{}
	}
}

// prepend returns a new solution with st before the stages of s (the
// paper's "·" concatenation), sharing no memory with s.
func prepend(st core.Stage, s core.Solution) core.Solution {
	out := make([]core.Stage, 0, len(s.Stages)+1)
	out = append(out, st)
	out = append(out, s.Stages...)
	return core.Solution{Stages: out}
}

// plan schedules c on r with compute under a fresh registry and journal,
// and returns the schedule, the registry snapshot and the JSONL journal.
func plan(t testing.TB, c *core.Chain, r core.Resources, compute func(Metrics) sched.ComputeSolutionFunc) (core.Solution, []obs.Sample, []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	j := trace.New()
	m := MetricsFrom(reg)
	m.Sched.Trace = trace.NewScope(j.Root().Begin("2CATAC"))
	sol := sched.ScheduleM(c, r, compute(m), m.Sched)
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return sol, reg.Snapshot(), buf.Bytes()
}

// matchReference fails t unless Schedule and the reference recursion give
// c on r the same schedule, the same counters (twocatac.recursion.nodes
// among them) and byte-identical journals.
func matchReference(t testing.TB, c *core.Chain, r core.Resources) {
	t.Helper()
	if got, want := Schedule(c, r).String(), referenceSchedule(c, r).String(); got != want {
		t.Fatalf("R=%v: schedule %s, reference %s", r, got, want)
	}
	got, gotReg, gotJ := plan(t, c, r, func(m Metrics) sched.ComputeSolutionFunc { return ComputeObs(false, m) })
	want, wantReg, wantJ := plan(t, c, r, referenceCompute)
	if got.String() != want.String() {
		t.Fatalf("R=%v: observed schedule %s, reference %s", r, got, want)
	}
	if !reflect.DeepEqual(gotReg, wantReg) {
		t.Fatalf("R=%v: counters\n  %v\nreference\n  %v", r, gotReg, wantReg)
	}
	if !bytes.Equal(gotJ, wantJ) {
		t.Fatalf("R=%v: journal differs from the reference's (%d vs %d bytes)", r, len(gotJ), len(wantJ))
	}
}

func referenceSchedule(c *core.Chain, r core.Resources) core.Solution {
	return sched.Schedule(c, r, referenceCompute(Metrics{}))
}

func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for iter := 0; iter < 400; iter++ {
		sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(18), sr), rng)
		r := core.Res(rng.Intn(7), rng.Intn(7))
		if r.Total() == 0 {
			r = r.With(core.Little, 1)
		}
		matchReference(t, c, r)
	}
	for _, p := range platform.All() {
		for _, r := range p.Configs() {
			t.Run(fmt.Sprintf("%s/%v", p.Name, r), func(t *testing.T) {
				matchReference(t, p.Chain(), r)
			})
		}
	}
}

func FuzzScheduleMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(3), uint8(50))
	f.Add(int64(7), uint8(18), uint8(6), uint8(0), uint8(20))
	f.Add(int64(9), uint8(1), uint8(0), uint8(1), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n, b, l, sr uint8) {
		n, b, l = 1+n%18, b%7, l%7
		if b+l == 0 {
			b = 1
		}
		c := chaingen.Generate(chaingen.Default(int(n), float64(sr%101)/100), rand.New(rand.NewSource(seed)))
		matchReference(t, c, core.Res(int(b), int(l)))
	})
}

// TestScheduleAllocs pins that a plan allocates neither per recursion node
// nor per binary-search probe: the closure, the search's stage buffer and
// the few times the recursion's stack grows it, the same at 20 tasks as at
// 60, where the tree has thousands of times more nodes.
func TestScheduleAllocs(t *testing.T) {
	r := core.Res(10, 10)
	for _, n := range []int{20, 40, 60} {
		c := chaingen.GenerateMany(chaingen.Default(n, 0.5), 7, 1)[0]
		if got := testing.AllocsPerRun(3, func() { Schedule(c, r) }); got > 6 {
			t.Errorf("n=%d: %.0f allocations per Schedule, want at most 6", n, got)
		}
	}
}
