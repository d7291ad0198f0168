package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ampsched/internal/obs"
	obshttp "ampsched/internal/obs/http"
)

func TestMainErrWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	// Tiny benchtime: the calibration loop still runs every benchmark at
	// least twice (warm-up + measurement) so the report is complete.
	if err := mainErr(out, time.Microsecond, "", gateOptions{}, false, statuszOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != Schema || rep.Tool != "benchreport" || rep.GoVersion == "" {
		t.Errorf("bad header: %+v", rep)
	}
	want := map[string]bool{}
	for _, b := range benchmarks() {
		want[b.name] = false
	}
	for _, r := range rep.Benchmarks {
		if _, ok := want[r.Name]; !ok {
			t.Errorf("unexpected benchmark %q", r.Name)
			continue
		}
		want[r.Name] = true
		if r.Iters <= 0 || r.NsPerOp < 0 {
			t.Errorf("%s: iters=%d ns/op=%v", r.Name, r.Iters, r.NsPerOp)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("benchmark %q missing from report", name)
		}
	}
	// The disabled paths must measure zero allocations even at a tiny
	// budget — this is the acceptance pin, enforced by mainErr itself
	// (a pin violation would have returned an error above).
	for _, r := range rep.Benchmarks {
		if r.PinZeroAllocs && r.AllocsPerOp != 0 {
			t.Errorf("%s: %v allocs/op, want 0", r.Name, r.AllocsPerOp)
		}
	}
}

func TestMainErrList(t *testing.T) {
	var buf bytes.Buffer
	if err := mainErr("", 0, "", gateOptions{}, true, statuszOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(buf.String())
	if len(lines) != len(benchmarks()) {
		t.Fatalf("-list printed %d names, want %d:\n%s", len(lines), len(benchmarks()), buf.String())
	}
	for _, want := range []string{"trace/journal_disabled", "obs/ops_disabled", "registry/schedule_traced"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-list missing %s", want)
		}
	}
}

func TestMainErrBadOutputPath(t *testing.T) {
	var buf bytes.Buffer
	err := mainErr(filepath.Join(t.TempDir(), "missing-dir", "bench.json"),
		time.Microsecond, "", gateOptions{}, false, statuszOptions{}, &buf)
	if err == nil {
		t.Fatal("unwritable output path accepted")
	}
}

func TestMainErrMatchFilters(t *testing.T) {
	var buf bytes.Buffer
	if err := mainErr("", 0, "herad/fill", gateOptions{}, true, statuszOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(buf.String())
	if len(lines) == 0 || len(lines) >= len(benchmarks()) {
		t.Fatalf("-match kept %d of %d benchmarks:\n%s", len(lines), len(benchmarks()), buf.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "herad/fill") && l != calibrateName {
			t.Errorf("-match leaked %q", l)
		}
	}
	// The calibration anchor survives every filter — the gate needs it.
	if !strings.Contains(buf.String(), calibrateName) {
		t.Errorf("-match dropped %s", calibrateName)
	}
}

// gateReport builds a minimal report for gate unit tests.
func gateReport(ns map[string]float64, guarded ...string) Report {
	g := map[string]bool{}
	for _, n := range guarded {
		g[n] = true
	}
	rep := Report{Schema: Schema, Tool: "benchreport"}
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Result{Name: name, NsPerOp: v, Guard: g[name]})
	}
	return rep
}

func TestGateCalibratedComparison(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeReport := func(path string, rep Report) {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeReport(base, gateReport(map[string]float64{
		calibrateName: 100,
		"herad/w1":    1000,
	}))
	opts := gateOptions{baseline: base, maxRegress: 25}
	var buf bytes.Buffer
	// Same machine, +20%: within the 25% budget.
	cur := gateReport(map[string]float64{calibrateName: 100, "herad/w1": 1200}, "herad/w1")
	if err := gate(cur, opts, &buf); err != nil {
		t.Errorf("20%% regression rejected under a 25%% budget: %v", err)
	}
	// Same machine, +30%: over budget.
	cur = gateReport(map[string]float64{calibrateName: 100, "herad/w1": 1300}, "herad/w1")
	if err := gate(cur, opts, &buf); err == nil {
		t.Error("30% regression accepted under a 25% budget")
	}
	// A machine 2x slower across the board: calibration cancels it out.
	cur = gateReport(map[string]float64{calibrateName: 200, "herad/w1": 2200}, "herad/w1")
	if err := gate(cur, opts, &buf); err != nil {
		t.Errorf("uniformly slower machine rejected despite calibration: %v", err)
	}
	// Guarded benchmark new in this run: skipped, not failed.
	cur = gateReport(map[string]float64{calibrateName: 100, "herad/new": 999999}, "herad/new")
	buf.Reset()
	if err := gate(cur, opts, &buf); err != nil {
		t.Errorf("benchmark without baseline entry failed the gate: %v", err)
	}
	if !strings.Contains(buf.String(), "no baseline entry") {
		t.Errorf("missing-baseline skip not reported:\n%s", buf.String())
	}
	// Baseline without the calibration anchor: explicit error.
	writeReport(base, gateReport(map[string]float64{"herad/w1": 1000}))
	cur = gateReport(map[string]float64{calibrateName: 100, "herad/w1": 1000}, "herad/w1")
	if err := gate(cur, opts, &buf); err == nil {
		t.Error("gate ran without a calibration benchmark in the baseline")
	}
}

func TestMainErrGateAgainstOwnReport(t *testing.T) {
	// End to end: a run gated against its own freshly written report must
	// pass — zero regression by construction.
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := mainErr(out, time.Microsecond, "herad", gateOptions{}, false, statuszOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	out2 := filepath.Join(t.TempDir(), "bench2.json")
	err := mainErr(out2, time.Microsecond, "herad", gateOptions{baseline: out, maxRegress: 400}, false, statuszOptions{}, &buf)
	if err != nil {
		t.Fatalf("self-gate failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "# gate:") {
		t.Errorf("gate produced no comparison lines:\n%s", buf.String())
	}
}

func TestMainErrStatuszArtifact(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	statusz := filepath.Join(dir, "statusz.json")
	var buf bytes.Buffer
	if err := mainErr(out, time.Microsecond, "obs/", gateOptions{}, false,
		statuszOptions{path: statusz, zeroTimers: true}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statusz)
	if err != nil {
		t.Fatal(err)
	}
	var doc obshttp.Statusz
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("statusz is not valid JSON: %v", err)
	}
	if doc.Tool != "benchreport" || len(doc.Metrics) == 0 {
		t.Fatalf("statusz doc = %+v", doc)
	}
	// The scenario's sampled series and drift counters are present under
	// the strategy slug.
	var names []string
	for _, m := range doc.Metrics {
		names = append(names, m.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"herad.desim.latency_us", "herad.desim.weight.stage0", "herad.drift.detected"} {
		if !strings.Contains(joined, want) {
			t.Errorf("statusz missing %q in:\n%s", want, joined)
		}
	}
	// With -statusz-zero-timers the snapshot is fully byte-deterministic:
	// the scenario is a simulated run, and the wall-clock timer totals —
	// the one nondeterministic family — are zeroed. Byte-equality, not a
	// filtered subset, is the artifact's contract.
	statusz2 := filepath.Join(dir, "statusz2.json")
	if err := writeStatusz(statuszOptions{path: statusz2, zeroTimers: true}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(statusz2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("zero-timer statusz snapshots differ between identical scenarios:\n%s\n---\n%s", data, again)
	}
	// The timers are zeroed but still listed, so the snapshot keeps the
	// full metric inventory.
	for _, m := range doc.Metrics {
		if m.Kind == obs.KindTimer && m.TotalNs != 0 {
			t.Errorf("timer %s kept wall-clock total %d", m.Name, m.TotalNs)
		}
	}
}
