package desim

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"strconv"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// stepScenario is the canonical mid-stream weight-step chain: two stages,
// one core each. Planned weights come from the schedule, so a sampled
// weight series can be read against exactly what the planner assumed.
func stepScenario(t *testing.T) (*core.Chain, core.Solution, []float64) {
	t.Helper()
	c := core.MustChain([]core.Task{task(100, 200, true), task(120, 240, true)})
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	planned := make([]float64, len(sol.Stages))
	for i, st := range sol.Stages {
		planned[i] = c.SumW(st.Start, st.End, st.Type)
	}
	return c, sol, planned
}

// stepRun simulates stepScenario with stage 1 slowing down 2× halfway
// through, sampled into a fresh registry.
func stepRun(t *testing.T) (Result, *obs.Registry) {
	t.Helper()
	c, sol, _ := stepScenario(t)
	reg := obs.NewRegistry()
	res, err := Simulate(c, sol, Config{
		Frames: 1000,
		Steps:  []WeightStep{{AfterFrame: 500, Stage: 1, Factor: 2}},
		Sample: &SampleConfig{Every: 6000, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

func TestWeightStepShowsInWeightSeries(t *testing.T) {
	res, reg := stepRun(t)
	if res.SamplesTaken < 10 {
		t.Fatalf("samples taken = %d, want a healthy window count", res.SamplesTaken)
	}
	// The step doubles stage 1's weight for the rest of the run: early
	// windows read ≈120, late ones ≈240.
	pts := reg.Series("desim.weight.stage1").Tail(0)
	if len(pts) < 4 {
		t.Fatalf("weight series has %d points", len(pts))
	}
	if first := pts[0].Value; first < 100 || first > 140 {
		t.Errorf("first window weight = %v, want ≈120", first)
	}
	if lastPt := pts[len(pts)-1].Value; lastPt < 200 || lastPt > 280 {
		t.Errorf("last window weight = %v, want ≈240", lastPt)
	}
	// Stage 0 is untouched and stays on plan in every window.
	for _, p := range reg.Series("desim.weight.stage0").Tail(0) {
		if p.Value != 100 {
			t.Errorf("stage 0 window %d weight = %v, want 100", p.Tick, p.Value)
		}
	}
}

func TestSamplingIsBitDeterministic(t *testing.T) {
	// Two identical runs must produce byte-identical registry snapshots —
	// including the latency histogram's p50/p95/p99.
	snap := func() []byte {
		_, reg := stepRun(t)
		b, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := snap(), snap()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ between identical runs:\n%s\n---\n%s", a, b)
	}
	_, reg := stepRun(t)
	q := reg.LogHistogram("desim.latency_us").Quantiles()
	if q.Count != 1000 || q.P95 <= 0 || q.P50 > q.P99 {
		t.Fatalf("latency quantiles = %+v", q)
	}
}

// TestSampleLandsUnderRegistryScope runs the weight-step scenario the way
// a per-strategy caller does — registry scoped by the strategy's slug —
// and checks that the registry snapshot (what -stats prints) lists the
// sampled series under that scope.
func TestSampleLandsUnderRegistryScope(t *testing.T) {
	c, sol, _ := stepScenario(t)
	reg := obs.NewRegistry()
	sreg := reg.Sub("herad")
	if _, err := Simulate(c, sol, Config{
		Frames: 1000,
		Steps:  []WeightStep{{AfterFrame: 500, Stage: 1, Factor: 2}},
		Sample: &SampleConfig{Metrics: sreg},
	}); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
	}
	for _, want := range []string{"herad.desim.latency_us", "herad.desim.weight.stage0", "herad.desim.occupancy.stage1"} {
		if !names[want] {
			t.Errorf("snapshot has no %q: %v", want, names)
		}
	}
}

func TestSampleWithoutStepStaysQuiet(t *testing.T) {
	// On plan, every window's weight estimate is exactly the planned
	// per-frame weight: nothing departs from the schedule.
	c, sol, planned := stepScenario(t)
	reg := obs.NewRegistry()
	res, err := Simulate(c, sol, Config{Frames: 1000, Sample: &SampleConfig{Every: 6000, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesTaken == 0 {
		t.Fatal("no samples taken")
	}
	for i, want := range planned {
		for _, p := range reg.Series("desim.weight.stage" + strconv.Itoa(i)).Tail(0) {
			if p.Value != want {
				t.Errorf("stage %d window %d weight = %v, want planned %v", i, p.Tick, p.Value, want)
			}
		}
	}
}

func TestSampleDefaultsAndOccupancy(t *testing.T) {
	c, sol, _ := stepScenario(t)
	reg := obs.NewRegistry()
	res, err := Simulate(c, sol, Config{Frames: 400, Sample: &SampleConfig{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	// Every=0 defaults to makespan/16 → 17 windows.
	if res.SamplesTaken != 17 {
		t.Fatalf("samples taken = %d, want 17", res.SamplesTaken)
	}
	occ := reg.Series("desim.occupancy.stage1").Tail(0)
	if len(occ) != 17 {
		t.Fatalf("occupancy series has %d points", len(occ))
	}
	// Stage 1 is the bottleneck (weight 120 vs 100): mid-run occupancy ≈ 1.
	mid := occ[8].Value
	if mid < 0.9 || mid > 1 {
		t.Errorf("bottleneck mid-run occupancy = %v", mid)
	}
}

func TestWeightStepValidation(t *testing.T) {
	c, sol, _ := stepScenario(t)
	if _, err := Simulate(c, sol, Config{Frames: 10, Steps: []WeightStep{{Stage: 5, Factor: 2}}}); err == nil {
		t.Error("out-of-range step stage accepted")
	}
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Simulate(c, sol, Config{Frames: 10, Steps: []WeightStep{{Stage: 0, Factor: f}}}); err == nil {
			t.Errorf("step factor %v accepted", f)
		}
	}
}

func TestWeightStepSlowsPeriod(t *testing.T) {
	c, sol, _ := stepScenario(t)
	base, err := Simulate(c, sol, Config{Frames: 1000})
	if err != nil {
		t.Fatal(err)
	}
	stepped, err := Simulate(c, sol, Config{Frames: 1000, Steps: []WeightStep{{AfterFrame: 0, Stage: 1, Factor: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Period <= base.Period {
		t.Fatalf("doubling the bottleneck did not slow the period: %v vs %v", stepped.Period, base.Period)
	}
}
