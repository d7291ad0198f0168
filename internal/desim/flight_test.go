package desim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampsched/internal/obs/flight"
)

// flightRun replays the canonical weight-step scenario with a flight
// recorder attached to the sample pass, returning the recorder's dump.
// Everything is driven by the simulated clock, so the dump must be
// bit-identical across runs — the golden contract.
func flightRun(t *testing.T) (string, *flight.Recorder) {
	t.Helper()
	c, sol, _ := stepScenario(t)
	rec := flight.New(4096)
	_, err := Simulate(c, sol, Config{
		Frames: 1000,
		Steps:  []WeightStep{{AfterFrame: 500, Stage: 1, Factor: 2}},
		Sample: &SampleConfig{Every: 6000, Flight: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), rec
}

func TestFlightDumpMatchesGolden(t *testing.T) {
	dump, rec := flightRun(t)

	// The dump tells the fault story in causal order: the injected step,
	// then the windows whose weight estimate shows it.
	counts := map[flight.Code]int{}
	for _, e := range rec.Snapshot() {
		counts[e.Code]++
	}
	if counts[flight.CodeFault] != 1 {
		t.Fatalf("counts = %v, want one fault", counts)
	}
	if counts[flight.CodeWindow] == 0 {
		t.Fatal("no window events recorded")
	}
	if !strings.Contains(dump, "fault stage=1 a=2") {
		t.Fatalf("dump lost the injected fault:\n%s", dump)
	}

	if again, _ := flightRun(t); again != dump {
		t.Fatalf("flight dumps differ between identical runs:\n%s\n---\n%s", dump, again)
	}

	golden := filepath.Join("testdata", "flight_dump.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if dump != string(want) {
		t.Fatalf("flight dump drifted from golden (re-run with -update to accept):\ngot:\n%s\nwant:\n%s", dump, want)
	}
}
