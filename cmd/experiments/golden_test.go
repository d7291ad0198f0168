package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ampsched/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCompare asserts got matches the named golden file, rewriting it
// under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/experiments -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s",
			golden, got)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed (the experiment drivers print to os.Stdout
// directly, so a bytes.Buffer cannot be injected).
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestTable1Golden is the k=2 equivalence gate of the k-type resource
// model at the campaign level: it runs the Table I simulation campaign
// (miniature but deterministic: fixed seed, 20 chains per scenario, all
// three resource pairs and stateless ratios, every strategy) and pins both
// the rendered table and the normalized metrics.json report byte for
// byte. Schedules, periods, core usage, table formatting and every
// algorithmic counter (DP cells, probes, recursion nodes, cache hits)
// must survive any refactor of the two-type code path unchanged;
// regenerate with -update only for intentional changes.
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a miniature campaign")
	}
	a := testApp()
	a.campaign.Metrics = obs.NewRegistry()
	a.metricsPath = filepath.Join(t.TempDir(), "metrics.json")
	out := captureStdout(t, func() error {
		if err := a.run("table1"); err != nil {
			return err
		}
		return a.writeMetrics()
	})
	goldenCompare(t, "table1.golden", out)
	raw, err := os.ReadFile(a.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table1_metrics.golden", normalizeReport(t, raw))
}
