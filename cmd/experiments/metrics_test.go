package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampsched/internal/obs"
)

// runWithMetrics runs one campaign on the command line with metrics
// collection enabled and returns the raw metrics.json bytes. The app
// plans through its own solution cache, as the binary does, so the report
// carries the planbatch.cache.* series.
func runWithMetrics(t *testing.T, cmd, path string) []byte {
	t.Helper()
	if code := run(append(quickArgs, "-metrics", path, cmd), io.Discard, io.Discard); code != 0 {
		t.Fatalf("%s: exit %d", cmd, code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// normalizeReport strips the host- and wall-clock-dependent parts of a
// metrics report: the timestamp, the Go runtime section, and every
// wall-clock-valued series (timers, and histogram/gauge series whose
// names mark them as duration-valued). What remains — the algorithmic
// counters — must be identical across runs.
func normalizeReport(t *testing.T, data []byte) []byte {
	t.Helper()
	var report map[string]json.RawMessage
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v", err)
	}
	delete(report, "timestamp_unix_ns")
	delete(report, "runtime")
	var series []map[string]any
	if err := json.Unmarshal(report["series"], &series); err != nil {
		t.Fatalf("series: %v", err)
	}
	var kept []map[string]any
	for _, s := range series {
		name, _ := s["name"].(string)
		kind, _ := s["kind"].(string)
		if kind == string(obs.KindTimer) ||
			strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_us") {
			continue
		}
		kept = append(kept, s)
	}
	norm, err := json.Marshal(map[string]any{"series": kept})
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestMetricsReportDeterministic runs the same campaign twice and pins
// that the normalized metrics reports are byte-identical: series names
// are sorted and every algorithmic counter is deterministic, even though
// the scheduling fans out over a worker pool.
func TestMetricsReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a miniature campaign twice")
	}
	dir := t.TempDir()
	first := runWithMetrics(t, "sensitivity", filepath.Join(dir, "a.json"))
	second := runWithMetrics(t, "sensitivity", filepath.Join(dir, "b.json"))
	a, b := normalizeReport(t, first), normalizeReport(t, second)
	if !bytes.Equal(a, b) {
		t.Errorf("normalized metrics reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if len(a) <= len(`{"series":[]}`) {
		t.Fatalf("normalized report carries no series: %s", a)
	}
	// The cache counters are part of the deterministic set (the pre-pass
	// classifies requests serially), and the sensitivity campaign genuinely
	// exercises hits: its task sweep and resource sweep share the
	// (20 tasks, R=(10,10)) scenario, chains and all.
	counts := seriesCounts(t, first)
	hits, okH := counts["planbatch.cache.hits"]
	misses, okM := counts["planbatch.cache.misses"]
	if !okH || !okM {
		t.Fatalf("cache series missing from the report: hits=%v misses=%v", okH, okM)
	}
	if hits <= 0 || misses <= 0 {
		t.Errorf("cache counters degenerate: hits=%d misses=%d (the shared scenario should hit)",
			hits, misses)
	}
}

// seriesCounts extracts the counter values of a metrics report by name.
func seriesCounts(t *testing.T, data []byte) map[string]int64 {
	t.Helper()
	var report obs.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, s := range report.Series {
		out[s.Name] = s.Count
	}
	return out
}

// TestMetricsReportShape pins the report schema cmd/experiments writes:
// schema version, tool name, runtime statistics, and the per-strategy
// series every campaign must emit.
func TestMetricsReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a miniature campaign")
	}
	data := runWithMetrics(t, "latency", filepath.Join(t.TempDir(), "m.json"))
	var report obs.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != obs.ReportSchema || report.Tool != "experiments" {
		t.Errorf("schema %d tool %q", report.Schema, report.Tool)
	}
	if report.Runtime.GoVersion == "" || report.Runtime.NumCPU <= 0 {
		t.Errorf("runtime section incomplete: %+v", report.Runtime)
	}
	names := map[string]bool{}
	for _, s := range report.Series {
		names[s.Name] = true
	}
	for _, want := range []string{
		"herad.schedule.calls", "herad.herad.dp.cells",
		"fertac.sched.search.iterations", "2catac.twocatac.recursion.nodes",
		"otac_b.otac.compute.calls", "planbatch.requests",
		"planbatch.cache.hits", "planbatch.cache.misses",
	} {
		if !names[want] {
			t.Errorf("series %q missing from the report (have %d series)", want, len(report.Series))
		}
	}
}
