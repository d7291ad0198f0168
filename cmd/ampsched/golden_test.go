package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

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
		t.Fatalf("%v (run: go test ./cmd/ampsched -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s",
			golden, got)
	}
}

// TestScheduleGolden is the k=2 equivalence gate of the k-type resource
// model: it schedules the seed DVB-S2 platform (Mac Studio, the paper's
// half configuration R=(8B,2L)) with every strategy and pins the complete
// text report — periods, FPS, pipeline decompositions, core usage — plus
// the canonical JSONL decision journal, byte for byte. The two-type code
// path must keep producing exactly these bytes through any refactor of the
// resource model; regenerate with -update only for intentional changes.
func TestScheduleGolden(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "sched.jsonl")
	out := mustRun(t, "-platform", "mac", "-resources", "8B,2L", "-strategy", "all", "-trace", jpath)
	goldenCompare(t, "schedule_mac.golden", []byte(out))
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "journal_mac.golden", journal)
}
