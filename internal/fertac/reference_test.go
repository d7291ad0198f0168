package fertac

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

// The reference is Algo 4 as it stood before the probes of a search shared
// one stage buffer: every probe allocates its own stages. Schedule is held
// to it stage for stage, counter for counter and journal event for journal
// event.

// referenceCompute returns the reference as a sched.ComputeSolutionFunc
// reporting into m.
func referenceCompute(m Metrics) sched.ComputeSolutionFunc {
	return func(c *core.Chain, s int, r core.Resources, target float64) core.Solution {
		return referenceComputeSolution(c, s, r, target, m)
	}
}

func referenceComputeSolution(c *core.Chain, s int, r core.Resources, target float64, m Metrics) core.Solution {
	stages := make([]core.Stage, 0, min(c.Len()-s, r.Total()))
	for {
		m.ComputeCalls.Inc()
		e, u := sched.ComputeStageM(c, s, r.Count(core.Little), core.Little, target, m.Sched)
		v := core.Little
		fallback := false
		if !stageValid(c, s, e, u, r, v, target) {
			m.BigFallbacks.Inc()
			fallback = true
			e, u = sched.ComputeStageM(c, s, r.Count(core.Big), core.Big, target, m.Sched)
			v = core.Big
			if !stageValid(c, s, e, u, r, v, target) {
				if m.Sched.Trace.Enabled() {
					m.Sched.Trace.Event("no_stage").Int("first_task", s).
						Int("big", r.Count(core.Big)).Int("little", r.Count(core.Little))
				}
				return core.Solution{} // no valid stage with either core type
			}
		}
		if m.Sched.Trace.Enabled() {
			m.Sched.Trace.Event("stage_placed").Int("first_task", s).Int("end", e).
				Int("cores", u).Str("type", v.String()).Bool("big_fallback", fallback)
		}
		stages = append(stages, core.Stage{Start: s, End: e, Cores: u, Type: v})
		if e == c.Len()-1 {
			return core.Solution{Stages: stages}
		}
		s, r = e+1, r.Consume(v, u)
	}
}

// plan schedules c on r with compute under a fresh registry and journal,
// and returns the schedule, the registry snapshot and the JSONL journal.
func plan(t testing.TB, c *core.Chain, r core.Resources, compute func(Metrics) sched.ComputeSolutionFunc) (core.Solution, []obs.Sample, []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	j := trace.New()
	m := MetricsFrom(reg)
	m.Sched.Trace = trace.NewScope(j.Root().Begin("FERTAC"))
	sol := sched.ScheduleM(c, r, compute(m), m.Sched)
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return sol, reg.Snapshot(), buf.Bytes()
}

// matchReference fails t unless Schedule and the reference give c on r
// the same schedule, the same counters and byte-identical journals.
func matchReference(t testing.TB, c *core.Chain, r core.Resources) {
	t.Helper()
	if got, want := Schedule(c, r).String(), sched.Schedule(c, r, referenceCompute(Metrics{})).String(); got != want {
		t.Fatalf("R=%v: schedule %s, reference %s", r, got, want)
	}
	got, gotReg, gotJ := plan(t, c, r, ComputeObs)
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

func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for iter := 0; iter < 400; iter++ {
		sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(40), sr), rng)
		r := core.Res(rng.Intn(9), rng.Intn(9))
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
	f.Add(int64(7), uint8(40), uint8(8), uint8(0), uint8(20))
	f.Add(int64(9), uint8(1), uint8(0), uint8(1), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n, b, l, sr uint8) {
		n, b, l = 1+n%40, b%9, l%9
		if b+l == 0 {
			b = 1
		}
		c := chaingen.Generate(chaingen.Default(int(n), float64(sr%101)/100), rand.New(rand.NewSource(seed)))
		matchReference(t, c, core.Res(int(b), int(l)))
	})
}

// TestScheduleAllocs pins that a plan allocates its stage buffer once, not
// once per binary-search probe: the closure and the buffer, at 20 tasks as
// at 512.
func TestScheduleAllocs(t *testing.T) {
	for _, n := range []int{20, 160, 512} {
		c := chaingen.GenerateMany(chaingen.Default(n, 0.5), 7, 1)[0]
		for _, r := range []core.Resources{core.Res(4, 4), core.Res(20, 20)} {
			if got := testing.AllocsPerRun(3, func() { Schedule(c, r) }); got > 2 {
				t.Errorf("n=%d R=%v: %.0f allocations per Schedule, want at most 2", n, r, got)
			}
		}
	}
}
