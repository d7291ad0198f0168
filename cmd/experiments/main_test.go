package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"strings"
	"testing"

	"ampsched/internal/experiments"
	"ampsched/internal/strategy"
)

// quietly redirects stdout around fn (the drivers print to stdout).
func quietly(t *testing.T, fn func() error) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
}

// testApp pins the PlanBatch pool at one worker: the reports the goldens
// byte-compare include the planbatch.workers gauge, which would otherwise
// read the host's GOMAXPROCS. Like the binary, it plans through one cache.
func testApp() *app {
	return &app{chains: 20, runs: 2, quick: true, scale: 10,
		campaign: experiments.Campaign{Workers: 1, Cache: strategy.NewCache()}}
}

func TestDriversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drivers run miniature campaigns")
	}
	a := testApp()
	for _, cmd := range []string{"table1", "fig1", "fig2", "table3", "fig5", "fig6", "sensitivity", "latency"} {
		cmd := cmd
		t.Run(cmd, func(t *testing.T) {
			quietly(t, func() error { return a.run(cmd) })
		})
	}
}

func TestDriverUnknown(t *testing.T) {
	a := testApp()
	if err := a.run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDriverCSVMode(t *testing.T) {
	a := testApp()
	a.csv = true
	quietly(t, func() error { return a.run("table3") })
}

func TestTable1CellsCached(t *testing.T) {
	a := testApp()
	quietly(t, func() error { return a.table1() })
	first := a.t1cache
	quietly(t, func() error { return a.fig1() })
	if &a.t1cache[0] != &first[0] {
		t.Error("table1 cells recomputed instead of cached")
	}
}

// TestTable2RowsCached pins that fig5 and fig6 read the rows table2
// measured: under -real a second run would be a second measurement.
func TestTable2RowsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("plans and simulates Table II")
	}
	a := testApp()
	quietly(t, func() error { _, err := a.table2(); return err })
	first := a.t2cache
	for _, cmd := range []string{"fig5", "fig6"} {
		quietly(t, func() error { return a.run(cmd) })
		if &a.t2cache[0] != &first[0] {
			t.Errorf("%s recomputed the Table II rows instead of reading the cache", cmd)
		}
	}
}

// TestTable2ConfigHonoursRealAndScale pins that every Table II campaign,
// fig6's included, runs at the -real and -scale the command line asked for.
func TestTable2ConfigHonoursRealAndScale(t *testing.T) {
	cfg := (&app{real: true, scale: 20}).table2Config()
	if !cfg.RunReal || cfg.TimeScale != 20 {
		t.Errorf("RunReal=%v TimeScale=%v, want true and 20", cfg.RunReal, cfg.TimeScale)
	}
}

// TestNewAppQuickKeepsExplicitFlags pins that -quick shrinks only the
// flags the command line leaves at their defaults.
func TestNewAppQuickKeepsExplicitFlags(t *testing.T) {
	for _, tc := range []struct {
		args         []string
		chains, runs int
	}{
		{[]string{"table1"}, 1000, 50},
		{[]string{"-quick", "table1"}, 100, 10},
		{[]string{"-quick", "-chains", "7", "-metrics", "", "table1"}, 7, 10},
		{[]string{"-runs", "3", "-quick", "fig3"}, 100, 3},
	} {
		a, cmd, err := newApp(tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if cmd != tc.args[len(tc.args)-1] || a.chains != tc.chains || a.runs != tc.runs {
			t.Errorf("%q: cmd %q chains %d runs %d, want %q %d %d",
				tc.args, cmd, a.chains, a.runs, tc.args[len(tc.args)-1], tc.chains, tc.runs)
		}
	}
}

// TestNewAppRefusesCounts pins that -chains and -runs below 1 are refused
// (a negative count used to panic in chain generation, a zero one to print
// NaN or "-" in every cell), and so is a negative -workers, which used to
// run silently at one worker per CPU.
func TestNewAppRefusesCounts(t *testing.T) {
	for _, tc := range []struct{ flag, val, cmd string }{
		{"-chains", "-1", "table1"},
		{"-chains", "0", "table1"},
		{"-runs", "0", "fig3"},
		{"-runs", "-2", "fig3"},
		{"-workers", "-2", "table1"},
	} {
		_, _, err := newApp([]string{"-quick", tc.flag, tc.val, "-metrics", "", tc.cmd})
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%s %s: err %v, want a %s error", tc.flag, tc.val, err, tc.flag)
		}
	}
}

// TestNewAppRefusesTrailingWords pins that words after the experiment name
// are refused and named: flag parsing stops at the first non-flag word, so
// "table1 -quick" used to ignore -quick and run the full campaign.
func TestNewAppRefusesTrailingWords(t *testing.T) {
	for _, args := range [][]string{
		{"table1", "-quick"},
		{"-quick", "fig3", "-runs", "3"},
		{"-quick", "table1", "fig1"},
	} {
		last := args[len(args)-1]
		_, _, err := newApp(args)
		if err == nil || !strings.HasPrefix(err.Error(), "unexpected arguments") || !strings.Contains(err.Error(), `"`+last+`"`) {
			t.Errorf("%q: err %v, want an unexpected-arguments error naming %q", args, err, last)
		}
	}
}

// TestNewAppRefusesScale pins that a -scale Table II would not run at is
// refused, instead of being announced and replaced by the default.
func TestNewAppRefusesScale(t *testing.T) {
	for _, s := range []string{"-3", "0", "NaN", "+Inf"} {
		_, _, err := newApp([]string{"-real", "-scale", s, "table2"})
		if err == nil || !strings.HasPrefix(err.Error(), "-scale") {
			t.Errorf("-scale %s: err %v, want a -scale error", s, err)
		}
	}
	a, _, err := newApp([]string{"-real", "-scale", "2.5", "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if a.scale != 2.5 {
		t.Errorf("-scale 2.5: scale %v", a.scale)
	}
}

// TestFig1CSVHasNoPlot pins that -csv fig1 writes only its title and CSV
// records: the ASCII Fig. 1b plot is text output only, as for fig3/fig4.
func TestFig1CSVHasNoPlot(t *testing.T) {
	a := testApp()
	a.csv = true
	out := captureStdout(t, func() error { return a.run("fig1") })
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		rec, err := csv.NewReader(strings.NewReader(line)).Read()
		if err != nil || len(rec) != 8 {
			t.Fatalf("-csv fig1 line is not an 8-field record (%v): %q\n%s", err, line, out)
		}
	}
}

// TestFig2OrderIsFixed renders fig2 50 times: every output must be
// byte-identical, with the "all results" heatmap first.
func TestFig2OrderIsFixed(t *testing.T) {
	a := testApp()
	first := captureStdout(t, func() error { return a.run("fig2") })
	all := bytes.Index(first, []byte("all results ("))
	opt := bytes.Index(first, []byte("only optimal periods ("))
	if all < 0 || opt < all {
		t.Fatalf("want \"all results\" before \"only optimal periods\":\n%s", first)
	}
	for i := 1; i < 50; i++ {
		if again := captureStdout(t, func() error { return a.run("fig2") }); !bytes.Equal(again, first) {
			t.Fatalf("render %d differs:\n%s\n---\n%s", i, first, again)
		}
	}
}
