package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMainErrFlightDump pins the CLI's black box: a simulated run (no
// wall clock) dumps one plan event per schedule and the desim window
// events, and a second identical invocation dumps the same bytes.
func TestMainErrFlightDump(t *testing.T) {
	run := func() string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "flight.txt")
		if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
			strategy: "all", simulate: true, frames: 10, scale: 1, interframe: 0,
			flightDump: path, out: &bytes.Buffer{}}); err != nil {
			t.Fatal(err)
		}
		d, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(d)
	}

	dump := run()
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^# flight dump: `),
		regexp.MustCompile(` plan stage=-1 a=[0-9.]+ b=[0-9]+ aux="HeRAD"\n`),
		regexp.MustCompile(` plan stage=-1 .* aux="OTAC \(L\)"\n`),
		regexp.MustCompile(` window `),
	} {
		if !want.MatchString(dump) {
			t.Fatalf("dump does not match %s:\n%s", want, dump)
		}
	}
	if again := run(); again != dump {
		t.Fatalf("flight dumps differ between identical runs:\n%s\n---\n%s", dump, again)
	}
}
