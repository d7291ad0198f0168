package otac

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

// The reference is OTAC's packer as it stood before the probes of a search
// built into the search's stage buffer: every probe grows a slice of its
// own and checks each stage with its own copy of the one-stage IsValid.
// Schedule is held to it stage for stage, counter for counter and journal
// event for journal event.

// referenceCompute returns the reference packer on core type v as a
// sched.ComputeSolutionFunc reporting into m.
func referenceCompute(v core.CoreType, m Metrics) sched.ComputeSolutionFunc {
	return func(c *core.Chain, r core.Resources, target float64, _ []core.Stage) core.Solution {
		return referenceComputeSolution(c, r.Count(v), v, target, m)
	}
}

func referenceComputeSolution(c *core.Chain, avail int, v core.CoreType, target float64, m Metrics) core.Solution {
	m.ComputeCalls.Inc()
	var stages []core.Stage
	for s := 0; s < c.Len(); {
		if avail <= 0 {
			if m.Sched.Trace.Enabled() {
				m.Sched.Trace.Event("exhausted").Int("first_task", s).Str("type", v.String())
			}
			return core.Solution{}
		}
		e, u := sched.ComputeStageM(c, s, avail, v, target, m.Sched)
		if u > avail || c.Weight(s, e, u, v) > target {
			if m.Sched.Trace.Enabled() {
				m.Sched.Trace.Event("exhausted").Int("first_task", s).Str("type", v.String()).
					Int("cores_needed", u).Int("avail", avail)
			}
			return core.Solution{}
		}
		m.Stages.Inc()
		if m.Sched.Trace.Enabled() {
			m.Sched.Trace.Event("stage_placed").Int("first_task", s).Int("end", e).
				Int("cores", u).Str("type", v.String())
		}
		stages = append(stages, core.Stage{Start: s, End: e, Cores: u, Type: v})
		avail -= u
		s = e + 1
	}
	return core.Solution{Stages: stages}
}

// plan schedules c on the v cores of r with compute under a fresh registry
// and journal, as the strategy table runs OTAC, and returns the schedule,
// the registry snapshot and the JSONL journal.
func plan(t testing.TB, c *core.Chain, r core.Resources, v core.CoreType, compute func(core.CoreType, Metrics) sched.ComputeSolutionFunc) (core.Solution, []obs.Sample, []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	j := trace.New()
	m := MetricsFrom(reg)
	m.Sched.Trace = trace.NewScope(j.Root().Begin("OTAC"))
	sol := sched.ScheduleM(c, r.Only(v), compute(v, m), m.Sched)
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return sol, reg.Snapshot(), buf.Bytes()
}

// matchReference fails t unless Schedule and the reference give c on each
// core type of r the same schedule, the same counters and byte-identical
// journals.
func matchReference(t testing.TB, c *core.Chain, r core.Resources) {
	t.Helper()
	for _, v := range []core.CoreType{core.Big, core.Little} {
		n := r.Count(v)
		want := core.Solution{}
		if n > 0 {
			want = sched.Schedule(c, r.Only(v), referenceCompute(v, Metrics{}))
		}
		if got := Schedule(c, n, v); got.String() != want.String() {
			t.Fatalf("R=%v %v: schedule %s, reference %s", r, v, got, want)
		}
		got, gotReg, gotJ := plan(t, c, r, v, ComputeObs)
		want, wantReg, wantJ := plan(t, c, r, v, referenceCompute)
		if got.String() != want.String() {
			t.Fatalf("R=%v %v: observed schedule %s, reference %s", r, v, got, want)
		}
		if !reflect.DeepEqual(gotReg, wantReg) {
			t.Fatalf("R=%v %v: counters\n  %v\nreference\n  %v", r, v, gotReg, wantReg)
		}
		if !bytes.Equal(gotJ, wantJ) {
			t.Fatalf("R=%v %v: journal differs from the reference's (%d vs %d bytes)", r, v, len(gotJ), len(wantJ))
		}
	}
}

func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 400; iter++ {
		sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(40), sr), rng)
		matchReference(t, c, core.Res(rng.Intn(9), rng.Intn(9)))
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
		c := chaingen.Generate(chaingen.Default(int(n), float64(sr%101)/100), rand.New(rand.NewSource(seed)))
		matchReference(t, c, core.Res(int(b), int(l)))
	})
}

// TestScheduleAllocs pins that a plan allocates no stages per binary-search
// probe: the closure and the search's stage buffer, at 20 tasks as at 512.
func TestScheduleAllocs(t *testing.T) {
	for _, n := range []int{20, 160, 512} {
		c := chaingen.GenerateMany(chaingen.Default(n, 0.5), 7, 1)[0]
		for _, cores := range []int{4, 20} {
			for _, v := range []core.CoreType{core.Big, core.Little} {
				if got := testing.AllocsPerRun(3, func() { Schedule(c, cores, v) }); got > 2 {
					t.Errorf("n=%d %d×%v: %.0f allocations per Schedule, want at most 2", n, cores, v, got)
				}
			}
		}
	}
}
