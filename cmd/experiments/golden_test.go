package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"io"

	"ampsched/internal/experiments"
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
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	if code := run(append(quickArgs, "-metrics", metrics, "table1"), &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	goldenCompare(t, "table1.golden", out.Bytes())
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table1_metrics.golden", normalizeReport(t, raw))
}

// TestResultsRegenerate regenerates the seven deterministic artifacts of
// results/ — Table I, Figs. 1, 2 and 5, Table III and the latency and
// sensitivity extensions — each in its own app, as `experiments -metrics
// "" X` does, and requires them byte for byte as committed: a planner
// change that claims to move no schedule must leave every one unedited.
// fig1 reads table1's cells, as one app running both would (t1cache).
// fig3, fig4, fig6, table2 and live carry timings and stay out.
func TestResultsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size campaigns")
	}
	var cells []experiments.Table1Cell
	for _, x := range []string{"table1", "fig1", "fig2", "fig5", "table3", "latency", "sensitivity"} {
		var out bytes.Buffer
		a, cmd := mustApp(t, &out, "-metrics", "", x)
		a.t1cache = cells
		mustRunAll(t, a, cmd)
		cells = a.t1cache
		want, err := os.ReadFile(filepath.Join("..", "..", "results", x+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			i := 0
			for i < min(len(gl), len(wl)) && bytes.Equal(gl[i], wl[i]) {
				i++
			}
			t.Errorf("experiments %s differs from results/%s.txt from line %d on:\n%q\nwant:\n%q",
				x, x, i+1, gl[min(i, len(gl)-1)], wl[min(i, len(wl)-1)])
		}
	}
}
