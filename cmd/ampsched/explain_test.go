package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampsched/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// explainArgs is the pinned invocation behind testdata/explain.golden:
// the 4-task example chain on 2 big + 2 little cores, all strategies.
var explainArgs = []string{"-input", "testdata/chain.json", "-resources", "2B,2L", "-strategy", "all", "-explain"}

// TestExplainGolden pins the full -explain narrative for the example chain
// under every strategy. The output is deterministic by construction (no
// wall-clock data enters the journal); regenerate with go test -update
// after intentional format or event changes.
func TestExplainGolden(t *testing.T) {
	out := []byte(mustRun(t, explainArgs...))
	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/ampsched -run TestExplainGolden -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("-explain output differs from %s (regenerate with -update if intended)\ngot:\n%s",
			golden, out)
	}
}

// TestExplainDeterministic runs the same -explain invocation twice and
// requires byte-identical output — the acceptance criterion backing the
// golden file.
func TestExplainDeterministic(t *testing.T) {
	if a, b := mustRun(t, explainArgs...), mustRun(t, explainArgs...); a != b {
		t.Fatalf("-explain output differs between two identical runs:\n%s\nvs:\n%s", a, b)
	}
}

// TestTraceDeterministic pins the other half of the criterion: the -trace
// JSONL journal and its Chrome view of every strategy on Mac Studio are
// byte-identical across runs, and every JSONL line decodes with
// encoding/json.
func TestTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}
	var files [2][]byte
	var chromes [2][]byte
	for i, p := range paths {
		mustRun(t, "-platform", "mac", "-resources", "16B,4L", "-strategy", "all", "-simulate", "-trace", p)
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
		t.Error("-trace JSONL differs between two identical runs")
	}
	if !bytes.Equal(chromes[0], chromes[1]) {
		t.Error("-trace Chrome view differs between two identical runs")
	}
	if recs := decodeJSONL(t, files[0]); len(recs) < 3 {
		t.Fatalf("journal has %d records, want a header and the run span", len(recs))
	}
}

// TestTraceCarriesRunTimelines: with -run, -strategy all -trace writes the
// journal it writes without -run, byte for byte, and a Chrome view that is
// one JSON array: the journal tree as process 0, untouched, then one
// process per strategy (pid 1+i) whose tracks name the strategy and hold
// one event per frame and stage.
func TestTraceCarriesRunTimelines(t *testing.T) {
	const frames = 10
	dir := t.TempDir()
	var journals, chromes [2][]byte
	for i, run := range []bool{false, true} {
		p := filepath.Join(dir, fmt.Sprintf("run%v.jsonl", run))
		mustRun(t, "-input", "testdata/chain.json", "-resources", "2B,2L", "-strategy", "all",
			fmt.Sprintf("-run=%v", run), "-frames", fmt.Sprint(frames), "-scale", "1", "-trace", p)
		var err error
		if journals[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
		if chromes[i], err = os.ReadFile(chromeSiblingPath(p)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(journals[0], journals[1]) {
		t.Error("-run changed the -trace journal")
	}
	if !bytes.HasPrefix(chromes[1], bytes.TrimSuffix(chromes[0], []byte("\n]\n"))) {
		t.Error("the journal tree's Chrome events differ under -run")
	}
	var events []struct {
		Pid int
		Tid string
	}
	if err := json.Unmarshal(chromes[1], &events); err != nil {
		t.Fatalf("Chrome view is not one JSON array: %v", err)
	}
	all, err := strategyList("all")
	if err != nil {
		t.Fatal(err)
	}
	perPid := map[int]int{}
	for _, e := range events {
		perPid[e.Pid]++
		if e.Pid < 0 || e.Pid > len(all) {
			t.Fatalf("event in process %d, want 0..%d", e.Pid, len(all))
		}
		if e.Pid > 0 && !strings.HasPrefix(e.Tid, all[e.Pid-1].Name()+" stage") {
			t.Fatalf("process %d track %q does not name %s", e.Pid, e.Tid, all[e.Pid-1].Name())
		}
	}
	if perPid[0] == 0 {
		t.Error("no journal events in process 0")
	}
	for i, sc := range all {
		if n := perPid[1+i]; n == 0 || n%frames != 0 {
			t.Errorf("%s: %d timeline events, want %d per stage", sc.Name(), n, frames)
		}
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
	code, _, errOut := invoke("-input", "testdata/chain.json", "-resources", "2B,0L",
		"-strategy", "all", "-trace", journal, "-memprofile", mem)
	if code != 1 {
		t.Fatal("expected OTAC (L) to fail with little=0")
	}
	if !strings.Contains(errOut, "OTAC (L)") {
		t.Fatalf("unexpected error: %s", errOut)
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
