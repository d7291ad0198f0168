package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampsched/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// explainConfig is the pinned invocation behind testdata/explain.golden:
// the 4-task example chain on 2 big + 2 little cores, all strategies.
func explainConfig(out *bytes.Buffer) config {
	return config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "all", frames: 10, scale: 1, interframe: 1,
		explain: true, out: out}
}

// TestExplainGolden pins the full -explain narrative for the example chain
// under every strategy. The output is deterministic by construction (no
// wall-clock data enters the journal); regenerate with go test -update
// after intentional format or event changes.
func TestExplainGolden(t *testing.T) {
	var out bytes.Buffer
	if err := mainErr(explainConfig(&out)); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/ampsched -run TestExplainGolden -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-explain output differs from %s (regenerate with -update if intended)\ngot:\n%s",
			golden, out.String())
	}
}

// TestExplainDeterministic runs the same -explain invocation twice and
// requires byte-identical output — the acceptance criterion backing the
// golden file.
func TestExplainDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := mainErr(explainConfig(&a)); err != nil {
		t.Fatal(err)
	}
	if err := mainErr(explainConfig(&b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("-explain output differs between two identical runs:\n%s\nvs:\n%s",
			a.String(), b.String())
	}
}

// TestTraceSchedDeterministic pins the other half of the criterion: the
// JSONL journal and its Chrome view are byte-identical across runs, and
// every JSONL line decodes with encoding/json.
func TestTraceSchedDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}
	var files [2][]byte
	var chromes [2][]byte
	for i, p := range paths {
		var out bytes.Buffer
		cfg := explainConfig(&out)
		cfg.explain = false
		cfg.traceSched = p
		if err := mainErr(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("journal not written: %v", err)
		}
		files[i] = data
		cdata, err := os.ReadFile(chromeSiblingPath(p))
		if err != nil {
			t.Fatalf("chrome view not written: %v", err)
		}
		chromes[i] = cdata
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("-trace-sched JSONL differs between two identical runs")
	}
	if !bytes.Equal(chromes[0], chromes[1]) {
		t.Error("-trace-sched Chrome view differs between two identical runs")
	}
	if recs := decodeJSONL(t, files[0]); len(recs) < 3 {
		t.Fatalf("journal has %d records, want a header and the run span", len(recs))
	}
}

// decodeJSONL decodes every line of a journal with encoding/json and
// checks the schema header.
func decodeJSONL(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %d is not JSON: %v\n%s", i+1, err, line)
		}
		recs = append(recs, rec)
	}
	if recs[0]["kind"] != "journal" || recs[0]["schema"] != float64(trace.Schema) {
		t.Fatalf("journal header %v, want kind journal at schema %d", recs[0], trace.Schema)
	}
	return recs
}

// TestMainErrFlushesArtifactsOnFailure forces a failing strategy step
// (-strategy all with little=0 makes OTAC (L) fail after the other four
// strategies succeed) and requires that the decision journal, its Chrome
// view and the heap profile are still written by the deferred exit paths.
func TestMainErrFlushesArtifactsOnFailure(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sched.jsonl")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := mainErr(config{input: "testdata/chain.json", big: 2, little: 0,
		strategy: "all", frames: 10, scale: 1, interframe: 1,
		traceSched: journal, memProfile: mem, out: &out})
	if err == nil {
		t.Fatal("expected OTAC (L) to fail with little=0")
	}
	if !strings.Contains(err.Error(), "OTAC (L)") {
		t.Fatalf("unexpected error: %v", err)
	}
	data, rerr := os.ReadFile(journal)
	if rerr != nil {
		t.Fatalf("journal not flushed on failure: %v", rerr)
	}
	// The journal must contain the work done before the failure and the
	// failing strategy's own span.
	for _, want := range []string{`"name":"HeRAD"`, `"name":"OTAC (L)"`, `"name":"no_schedule"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("flushed journal missing %s", want)
		}
	}
	decodeJSONL(t, data)
	if st, err := os.Stat(chromeSiblingPath(journal)); err != nil || st.Size() == 0 {
		t.Errorf("chrome view not flushed on failure: %v", err)
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile not flushed on failure: %v", err)
	}
}

// TestMainErrListen serves the exposition endpoints during a run; the
// printed line names the bound address.
func TestMainErrListen(t *testing.T) {
	var out bytes.Buffer
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
		listen: "127.0.0.1:0", out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# serving metrics and pprof on http://127.0.0.1:") {
		t.Errorf("missing listen banner in output:\n%s", out.String())
	}
	// A bad address must fail up front.
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
		listen: "256.0.0.1:bad", out: &out}); err == nil {
		t.Error("bad -listen address accepted")
	}
}

func TestChromeSiblingPath(t *testing.T) {
	for in, want := range map[string]string{
		"sched.jsonl":    "sched.chrome.json",
		"/tmp/a/b.jsonl": "/tmp/a/b.chrome.json",
		"journal":        "journal.chrome.json",
		"trace.chrome":   "trace.chrome.chrome.json",
	} {
		if got := chromeSiblingPath(in); got != want {
			t.Errorf("chromeSiblingPath(%q) = %q, want %q", in, got, want)
		}
	}
}
