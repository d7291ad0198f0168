package desim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/fertac"
	"ampsched/internal/herad"
	"ampsched/internal/platform"
)

func task(wb, wl float64, rep bool) core.Task {
	return core.Task{Weight: core.Weights(wb, wl), Replicable: rep}
}

func TestErrors(t *testing.T) {
	c := core.MustChain([]core.Task{task(1, 1, true)})
	if _, err := Simulate(nil, core.Solution{}, Config{}); err == nil {
		t.Error("nil chain accepted")
	}
	if _, err := Simulate(c, core.Solution{}, Config{}); err == nil {
		t.Error("empty solution accepted")
	}
	bad := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 0, Type: core.Big}}}
	if _, err := Simulate(c, bad, Config{}); err == nil {
		t.Error("structurally invalid solution accepted")
	}
	ok := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}}
	if _, err := Simulate(c, ok, Config{QueueCap: -1}); err == nil {
		t.Error("negative queue capacity accepted")
	}
	if _, err := Simulate(c, ok, Config{Frames: -3}); err == nil || !strings.Contains(err.Error(), "-3") {
		t.Errorf("Frames = -3: err %v, want a refusal naming -3", err)
	}
}

func TestSingleStagePeriod(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 20, false), task(5, 10, false)})
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 1, Cores: 1, Type: core.Big}}}
	res, err := Simulate(c, sol, Config{Frames: 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-15) > 1e-9 {
		t.Errorf("period = %v, want 15", res.Period)
	}
	if math.Abs(res.Latency-15) > 1e-9 {
		t.Errorf("latency = %v, want 15", res.Latency)
	}
}

func TestReplicatedStageSpeedup(t *testing.T) {
	// One replicable stage of weight 30 on 3 cores: period 10, but each
	// frame still takes 30 to process (latency ≥ 30).
	c := core.MustChain([]core.Task{task(30, 60, true)})
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 3, Type: core.Big}}}
	res, err := Simulate(c, sol, Config{Frames: 900})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-10) > 1e-9 {
		t.Errorf("period = %v, want 10", res.Period)
	}
	if res.Latency < 30-1e-9 {
		t.Errorf("latency = %v, must be at least the service time 30", res.Latency)
	}
}

func TestBottleneckDominates(t *testing.T) {
	// Three stages with weights 5, 20, 10: the slow stage sets the
	// period.
	c := core.MustChain([]core.Task{
		task(5, 5, false), task(20, 20, false), task(10, 10, false),
	})
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
		{Start: 2, End: 2, Cores: 1, Type: core.Big},
	}}
	res, err := Simulate(c, sol, Config{Frames: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-20) > 1e-9 {
		t.Errorf("period = %v, want 20", res.Period)
	}
}

func TestLittleCoreWeightsUsed(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 40, false)})
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Little}}}
	res, err := Simulate(c, sol, Config{Frames: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-40) > 1e-9 {
		t.Errorf("little-core period = %v, want 40", res.Period)
	}
}

func TestFiniteBuffersKeepBottleneckThroughput(t *testing.T) {
	// Deterministic flow lines reach the bottleneck rate for any buffer
	// capacity ≥ 1; finite buffers must not change the steady period.
	c := core.MustChain([]core.Task{
		task(8, 8, false), task(12, 12, false), task(4, 4, false),
	})
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
		{Start: 2, End: 2, Cores: 1, Type: core.Big},
	}}
	for _, cap := range []int{0, 1, 2, 8} {
		res, err := Simulate(c, sol, Config{Frames: 1200, QueueCap: cap})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Period-12) > 1e-9 {
			t.Errorf("cap %d: period = %v, want 12", cap, res.Period)
		}
	}
}

func TestMatchesAnalyticPeriodOnRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for iter := 0; iter < 60; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(15), 0.5), rng)
		r := core.Res(1+rng.Intn(5), 1+rng.Intn(5))
		sol := fertac.Schedule(c, r)
		if sol.IsEmpty() {
			t.Fatal("no schedule")
		}
		res, err := Simulate(c, sol, Config{Frames: 1500, QueueCap: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := PredictPeriod(c, sol)
		if math.Abs(res.Period-want) > want*0.01+1e-9 {
			t.Fatalf("iter %d: simulated period %v, analytic %v (sol %v)",
				iter, res.Period, want, sol)
		}
	}
}

func TestTableIIPredictions(t *testing.T) {
	// The simulator must reproduce Table II's expected FPS from HeRAD's
	// schedules: Mac Studio (8,2) → 1128.7 µs → ≈3544 FPS at interframe 4.
	mac := platform.MacStudio()
	c := mac.Chain()
	sol := herad.Schedule(c, core.Res(8, 2))
	res, err := Simulate(c, sol, Config{Frames: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-1128.8) > 1.0 {
		t.Errorf("Mac (8,2) HeRAD period = %v µs, want ≈1128.7", res.Period)
	}
	fps := res.Throughput(mac.Interframe)
	if math.Abs(fps-3544) > 10 {
		t.Errorf("FPS = %v, want ≈3544", fps)
	}
	if mb := platform.MbPerSecond(fps); math.Abs(mb-50.4) > 0.3 {
		t.Errorf("Mb/s = %v, want ≈50.4", mb)
	}
}

func TestWarmupDefaults(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 10, false)})
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}}
	res, err := Simulate(c, sol, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 2000 || res.Period != 10 {
		t.Errorf("defaults broken: %+v", res)
	}
}

// TestShortRuns covers the runs whose default warmup, Frames/4, is 0: one
// frame has no period, and from two frames on the period is the
// bottleneck's from the first departure.
func TestShortRuns(t *testing.T) {
	c := core.MustChain([]core.Task{task(10, 10, false), task(20, 20, false)})
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	for frames := 1; frames <= 5; frames++ {
		res, err := Simulate(c, sol, Config{Frames: frames})
		if frames == 1 {
			if err == nil {
				t.Errorf("1 frame accepted: %+v", res)
			}
			continue
		}
		if err != nil {
			t.Errorf("%d frames: %v", frames, err)
		} else if res.Period != 20 || res.Makespan != 30+20*float64(frames-1) {
			t.Errorf("%d frames: period %v, makespan %v; want 20, %v", frames, res.Period, res.Makespan, 30+20*(frames-1))
		}
	}
}

func TestJitterValidationAndEffect(t *testing.T) {
	c := core.MustChain([]core.Task{
		task(10, 10, false), task(10, 10, false),
	})
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	for _, j := range []float64{-0.1, 1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := Simulate(c, sol, Config{Jitter: j}); err == nil {
			t.Errorf("jitter %v accepted", j)
		}
	}
	clean, err := Simulate(c, sol, Config{Frames: 3000})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Simulate(c, sol, Config{Frames: 3000, Jitter: 0.2, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Jitter can only hurt: a pipeline cannot average away slow-stage
	// excursions, so the measured period rises above the analytic bound —
	// the mechanism behind the paper's expected-vs-real throughput gap.
	if noisy.Period <= clean.Period {
		t.Errorf("jittered period %v not above clean %v", noisy.Period, clean.Period)
	}
	if noisy.Period > clean.Period*1.25 {
		t.Errorf("20%% jitter inflated the period by %.0f%%",
			100*(noisy.Period/clean.Period-1))
	}
	// Deterministic for a fixed seed.
	again, err := Simulate(c, sol, Config{Frames: 3000, Jitter: 0.2, QueueCap: 1, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if again.Period != noisy.Period {
		t.Error("jitter not deterministic for a fixed seed")
	}
}
