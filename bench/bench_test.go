package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// No assertion in this file depends on a timing value or on GOMAXPROCS: the
// quick scale only has to emit every metric, pass every oracle and generate
// the same inputs from the same seed.

func quickConfig(t *testing.T, workload string, seed int64, trace bool) config {
	t.Helper()
	return config{workload: workload, seed: seed, seconds: 0.2, trace: trace, size: quickSize, out: t.TempDir(), w: hostW(), log: io.Discard}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	measured := map[string]bool{} // per-layer metrics some workload reported a value for
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, name, 1, trace)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", name, d.name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; every one is defined and positive on every workload", name, d.name, m.Value)
				case trace && m.Value != 0:
					measured[d.name] = true
				}
			}
			var line result
			if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line does not parse back: %v", name, trace, err)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
	for _, d := range perLayer {
		// Exact zeros: no lost frame at this length, and a desim that agrees
		// with the analytic period to the last bit on the short run.
		if !measured[d.name] && d.name != "dvbs2.ber" && d.name != "desim.period_err_max" {
			t.Errorf("per-layer metric %s is 0 on every workload: its home workload does not measure it", d.name)
		}
	}
}

func TestMetricNames(t *testing.T) {
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits of BENCHMARK.json", len(endToEnd), len(perLayer))
	}
}

// TestDigests checks that a seed fixes the inputs and the planned periods,
// and that another seed changes them where the inputs are drawn from it
// (stream_handoff has no input to draw; replay_tableII draws only the row
// order, so its periods are the paper's whatever the seed; rx_live's planned
// period comes from a live profile and is not an input).
func TestDigests(t *testing.T) {
	digests := func(name string, seed int64) (uint64, uint64) {
		cfg := quickConfig(t, name, seed, false)
		cfg.size.replayRows = 20 // three rows have too few orders to tell two seeds apart
		w := newWorkload(cfg, nil)
		if err := w.setup(); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		return w.digests()
	}
	for _, name := range workloadNames {
		in1, per1 := digests(name, 1)
		in1b, per1b := digests(name, 1)
		in2, per2 := digests(name, 2)
		if in1 != in1b || per1 != per1b {
			t.Errorf("%s: two runs of seed 1 differ: input %x/%x period %x/%x", name, in1, in1b, per1, per1b)
		}
		if name != "stream_handoff" && in1 == in2 {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs (%x)", name, in1)
		}
		if strings.HasPrefix(name, "plan_") && (per1 == 0 || per1 == per2) {
			t.Errorf("%s: seeds 1 and 2 plan the same periods (%x)", name, per1)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to metrics.go and to the limits
// the benchmark contract puts on it.
func TestBenchmarkJSON(t *testing.T) {
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: name %q, why of %d characters", i, w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, metrics.go has %d and %d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s (%s), metrics.go has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v; it must have the largest (%v)", setupBound, maxBound)
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d is %s (%s, %s), metrics.go has %s (%s)", i, m.Name, m.Unit, m.Better, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	s := func(v ...float64) series { return newSeries("x", v) }
	for _, tc := range []struct {
		a, b   series
		higher bool
		want   string
	}{
		{s(100, 101, 99, 100), s(100, 102, 99, 101), true, "same"},
		{s(100, 101, 99, 100), s(80, 81, 79, 80), true, "worse"},
		{s(100, 101, 99, 100), s(120, 121, 119, 120), true, "better"},
		{s(100, 101, 99, 100), s(120, 121, 119, 120), false, "worse"},
		{s(100, 130, 70, 100), s(101, 131, 71, 101), true, "unresolved"},
		{s(100, 130, 70, 100), s(140, 180, 135, 150), true, "better"}, // wide, but every run beats every run
		{s(), s(1), true, "missing"},
	} {
		if got := verdictOf(tc.a, tc.b, tc.higher, 0.07); got != tc.want {
			t.Errorf("verdictOf(%v, %v, higher=%v) = %s, want %s", tc.a.Values, tc.b.Values, tc.higher, got, tc.want)
		}
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	wl := map[string]workloadReport{}
	for _, name := range workloadNames {
		e := map[string]series{}
		for _, d := range endToEnd {
			e[d.name] = newSeries(d.unit, []float64{10, 10.1, 9.9})
		}
		wl[name] = workloadReport{EndToEnd: e}
	}
	a := write("a.json", report{Host: host{NProc: 2, GOMAXPROCS: 2, W: 2}, Runs: 3, Workloads: wl})
	b := write("b.json", report{Host: host{NProc: 8, GOMAXPROCS: 8, W: 4}, Runs: 3, Workloads: wl})
	var out bytes.Buffer
	if _, err := compareReports(&out, "../BENCHMARK.json", a, b); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("comparing reports of different hosts: err = %v", err)
	}
	worse, err := compareReports(&out, "../BENCHMARK.json", a, a)
	if err != nil || worse {
		t.Errorf("comparing a report with itself: worse=%v err=%v", worse, err)
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("no verdict printed:\n%s", out.String())
	}
}
