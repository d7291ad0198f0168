package desim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// driftScenario is the canonical mid-stream weight-step run: two stages,
// stage 1 slows down 2× halfway through. Planned weights come from the
// schedule, so the detector watches exactly what the planner assumed.
func driftScenario(t *testing.T) (*core.Chain, core.Solution, []float64) {
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

func driftRun(t *testing.T) (Result, *obs.Registry, *obs.DriftDetector, *trace.Journal) {
	t.Helper()
	c, sol, planned := driftScenario(t)
	reg := obs.NewRegistry()
	j := trace.New()
	sp := j.Begin("desim")
	d := obs.NewDriftDetector(planned, obs.DriftConfig{Threshold: 0.25, Alpha: 0.5, MinSamples: 2}, reg, sp)
	cfg := Config{
		Frames: 1000,
		Steps:  []WeightStep{{AfterFrame: 500, Stage: 1, Factor: 2}},
		Sample: &SampleConfig{Every: 6000, Metrics: reg, Drift: d},
	}
	res, err := Simulate(c, sol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, reg, d, j
}

func TestWeightStepFiresExactlyOneDriftEvent(t *testing.T) {
	res, reg, d, _ := driftRun(t)
	if res.SamplesTaken < 10 {
		t.Fatalf("samples taken = %d, want a healthy window count", res.SamplesTaken)
	}
	// The step doubles stage 1's weight for the rest of the run: one
	// excursion, so exactly one edge-triggered event.
	if d.Detected() != 1 {
		t.Fatalf("drift events = %d, want exactly 1", d.Detected())
	}
	if got := reg.Counter("drift.detected").Value(); got != 1 {
		t.Fatalf("drift.detected counter = %d", got)
	}
	// The estimate converged to the post-step weight of stage 1 (120·2).
	if est := d.Estimate(1); est < 200 || est > 280 {
		t.Fatalf("stage 1 estimate = %v, want ≈240", est)
	}
	if est := d.Estimate(0); est < 80 || est > 120 {
		t.Fatalf("stage 0 estimate = %v, want ≈100 (on plan)", est)
	}
	// Weight series reflect the step: early windows ≈120, late ≈240.
	pts := reg.Series("desim.weight.stage1", 0).Tail(0)
	if len(pts) < 4 {
		t.Fatalf("weight series has %d points", len(pts))
	}
	if first := pts[0].Value; first < 100 || first > 140 {
		t.Errorf("first window weight = %v, want ≈120", first)
	}
	if lastPt := pts[len(pts)-1].Value; lastPt < 200 || lastPt > 280 {
		t.Errorf("last window weight = %v, want ≈240", lastPt)
	}
}

func TestDriftJournalMatchesGolden(t *testing.T) {
	_, _, _, j := driftRun(t)
	var buf bytes.Buffer
	if err := j.WriteExplain(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "drift_journal.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal drifted from golden (re-run with -update to accept):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestSamplingIsBitDeterministic(t *testing.T) {
	// Two identical runs must produce byte-identical registry snapshots —
	// including the latency histogram's p50/p95/p99.
	snap := func() []byte {
		_, reg, _, _ := driftRun(t)
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
	_, reg, _, _ := driftRun(t)
	q := reg.LogHistogram("desim.latency_us").Quantiles()
	if q.Count != 1000 || q.P95 <= 0 || q.P50 > q.P99 {
		t.Fatalf("latency quantiles = %+v", q)
	}
}

// TestSampleLandsUnderRegistryScope runs the weight-step scenario the way
// a per-strategy caller does — registry scoped by the strategy's slug, the
// detector on its default configuration — and checks that the snapshot
// /statusz serves lists the sampled series and the drift counter under
// that scope.
func TestSampleLandsUnderRegistryScope(t *testing.T) {
	c, sol, planned := driftScenario(t)
	reg := obs.NewRegistry()
	sreg := reg.Sub("herad")
	d := obs.NewDriftDetector(planned, obs.DriftConfig{}, sreg, nil)
	if _, err := Simulate(c, sol, Config{
		Frames: 1000,
		Steps:  []WeightStep{{AfterFrame: 500, Stage: 1, Factor: 2}},
		Sample: &SampleConfig{Metrics: sreg, Drift: d},
	}); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range reg.Snapshot() {
		names[s.Name] = true
	}
	for _, want := range []string{"herad.desim.latency_us", "herad.desim.weight.stage0", "herad.drift.detected"} {
		if !names[want] {
			t.Errorf("snapshot has no %q: %v", want, names)
		}
	}
	if d.Detected() != 1 {
		t.Errorf("drift events = %d, want exactly 1 for one persistent step", d.Detected())
	}
}

func TestSampleWithoutStepStaysQuiet(t *testing.T) {
	c, sol, planned := driftScenario(t)
	d := obs.NewDriftDetector(planned, obs.DriftConfig{Threshold: 0.25, Alpha: 0.5, MinSamples: 2}, nil, nil)
	res, err := Simulate(c, sol, Config{Frames: 1000, Sample: &SampleConfig{Every: 6000, Drift: d}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Detected() != 0 {
		t.Fatalf("on-plan run fired %d drift events", d.Detected())
	}
	if res.SamplesTaken == 0 {
		t.Fatal("no samples taken")
	}
}

func TestSampleDefaultsAndOccupancy(t *testing.T) {
	c, sol, _ := driftScenario(t)
	reg := obs.NewRegistry()
	res, err := Simulate(c, sol, Config{Frames: 400, Sample: &SampleConfig{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	// Every=0 defaults to makespan/16 → 17 windows.
	if res.SamplesTaken != 17 {
		t.Fatalf("samples taken = %d, want 17", res.SamplesTaken)
	}
	occ := reg.Series("desim.occupancy.stage1", 0).Tail(0)
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
	c, sol, _ := driftScenario(t)
	if _, err := Simulate(c, sol, Config{Frames: 10, Steps: []WeightStep{{Stage: 5, Factor: 2}}}); err == nil {
		t.Error("out-of-range step stage accepted")
	}
	if _, err := Simulate(c, sol, Config{Frames: 10, Steps: []WeightStep{{Stage: 0, Factor: 0}}}); err == nil {
		t.Error("non-positive step factor accepted")
	}
}

func TestWeightStepSlowsPeriod(t *testing.T) {
	c, sol, _ := driftScenario(t)
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
