package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// quickArgs is the miniature campaign the tests run: 20 chains per
// scenario, 2 per timing point and a PlanBatch pool of one worker, since
// the reports the goldens byte-compare include the planbatch.workers
// gauge, which would otherwise read the host's GOMAXPROCS.
var quickArgs = []string{"-quick", "-chains", "20", "-runs", "2", "-workers", "1"}

// mustApp builds the app and experiment name newApp builds from args,
// writing stdout to out and stderr nowhere, and fails the test on a
// refusal. Like the binary's, the app plans through one cache.
func mustApp(t *testing.T, out io.Writer, args ...string) (*app, string) {
	t.Helper()
	a, cmd, err := newApp(args, out, io.Discard)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return a, cmd
}

// quickApp is mustApp on quickArgs with metrics collection off, then
// args.
func quickApp(t *testing.T, out io.Writer, args ...string) *app {
	t.Helper()
	a, _ := mustApp(t, out, append(append(quickArgs, "-metrics", ""), args...)...)
	return a
}

// mustRunAll runs each experiment on a, failing the test on an error.
func mustRunAll(t *testing.T, a *app, cmds ...string) {
	t.Helper()
	for _, cmd := range cmds {
		if err := a.run(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

// TestRunExitCodes pins the exit code of each kind of invocation: 0 for
// -h and a good run, 2 for a command line newApp refuses (the removed
// -cache flag among them) and 1 for an error of the experiment. A refusal
// writes nothing to stdout; a flag the FlagSet refuses leaves its own
// message and the usage on stderr once, with no "experiments:" line.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		code    int
		stderr  string // in stderr
		flagErr bool   // refused by the FlagSet
	}{
		{[]string{"-h"}, 0, "-chains int", true},
		{[]string{"-metrics", "", "table3"}, 0, "", false},
		{[]string{"-cache=false", "-metrics", "", "table3"}, 2, "flag provided but not defined: -cache", true},
		{[]string{"-chains", "many", "table1"}, 2, `invalid value "many" for flag -chains`, true},
		{[]string{"-quick", "-chains", "0", "-metrics", "", "table1"}, 2, "experiments: -chains must be at least 1", false},
		{[]string{"-quick", "-runs", "0", "-metrics", "", "table1"}, 2, "experiments: -runs must be at least 1", false},
		{[]string{"-quick", "-workers", "-1", "-metrics", "", "table1"}, 2, "experiments: -workers must be >= 0", false},
		{[]string{"-real", "-scale", "-3", "table2"}, 2, "experiments: -scale must be", false},
		{[]string{"-metrics", "", "table1", "-quick"}, 2, `experiments: unexpected arguments ["-quick"]`, false},
		{[]string{"-metrics", ""}, 2, "experiments: missing experiment name", false},
		{[]string{"-metrics", "", "nope"}, 1, `experiments: unknown experiment "nope"`, false},
	} {
		var out, errOut strings.Builder
		code := run(tc.args, &out, &errOut)
		if code != tc.code || !strings.Contains(errOut.String(), tc.stderr) {
			t.Errorf("%q: exit %d, want %d with %q on stderr:\n%s", tc.args, code, tc.code, tc.stderr, errOut.String())
		}
		if code != 0 && out.Len() != 0 {
			t.Errorf("%q printed to stdout before refusing:\n%s", tc.args, out.String())
		}
		if tc.flagErr && code != 0 && (strings.Count(errOut.String(), tc.stderr) != 1 ||
			strings.Count(errOut.String(), "Usage of experiments:") != 1 || strings.Contains(errOut.String(), "experiments: ")) {
			t.Errorf("%q: stderr does not hold the error and the usage once each with no experiments: line:\n%s", tc.args, errOut.String())
		}
	}
}

func TestDriversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drivers run miniature campaigns")
	}
	a := quickApp(t, io.Discard, "table1")
	for _, cmd := range []string{"table1", "fig1", "fig2", "table3", "fig5", "fig6", "sensitivity", "latency"} {
		t.Run(cmd, func(t *testing.T) { mustRunAll(t, a, cmd) })
	}
}

func TestDriverUnknown(t *testing.T) {
	if err := quickApp(t, io.Discard, "nope").run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDriverCSVMode(t *testing.T) {
	mustRunAll(t, quickApp(t, io.Discard, "-csv", "table3"), "table3")
}

func TestTable1CellsCached(t *testing.T) {
	a := quickApp(t, io.Discard, "table1")
	mustRunAll(t, a, "table1")
	first := a.t1cache
	mustRunAll(t, a, "fig1")
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
	a := quickApp(t, io.Discard, "table2")
	mustRunAll(t, a, "table2")
	first := a.t2cache
	for _, cmd := range []string{"fig5", "fig6"} {
		mustRunAll(t, a, cmd)
		if &a.t2cache[0] != &first[0] {
			t.Errorf("%s recomputed the Table II rows instead of reading the cache", cmd)
		}
	}
}

// TestTable2ConfigHonoursRealAndScale pins that every Table II campaign,
// fig6's included, runs at the -real and -scale the command line asked for.
func TestTable2ConfigHonoursRealAndScale(t *testing.T) {
	a, _ := mustApp(t, io.Discard, "-real", "-scale", "20", "-metrics", "", "fig6")
	if cfg := a.table2Config(); !cfg.RunReal || cfg.TimeScale != 20 {
		t.Errorf("RunReal=%v TimeScale=%v, want true and 20", cfg.RunReal, cfg.TimeScale)
	}
}

// TestNewAppQuickKeepsExplicitFlags pins that -quick shrinks only the
// flags the command line leaves at their defaults, and that the campaign
// runs at the count it was given.
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
		a, cmd := mustApp(t, io.Discard, tc.args...)
		if cmd != tc.args[len(tc.args)-1] || a.chains != tc.chains || a.runs != tc.runs {
			t.Errorf("%q: cmd %q chains %d runs %d, want %q %d %d",
				tc.args, cmd, a.chains, a.runs, tc.args[len(tc.args)-1], tc.chains, tc.runs)
		}
	}
	var out strings.Builder
	if code := run([]string{"-quick", "-chains", "7", "-metrics", "", "table1"}, &out, io.Discard); code != 0 || !strings.Contains(out.String(), "(7 chains") {
		t.Errorf("-quick -chains 7 table1: exit %d, want a table of 7 chains:\n%s", code, out.String())
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
		_, _, err := newApp([]string{"-quick", tc.flag, tc.val, "-metrics", "", tc.cmd}, io.Discard, io.Discard)
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
		_, _, err := newApp(args, io.Discard, io.Discard)
		if err == nil || !strings.HasPrefix(err.Error(), "unexpected arguments") || !strings.Contains(err.Error(), `"`+last+`"`) {
			t.Errorf("%q: err %v, want an unexpected-arguments error naming %q", args, err, last)
		}
	}
}

// TestNewAppRefusesScale pins that a -scale Table II would not run at is
// refused, instead of being announced and replaced by the default.
func TestNewAppRefusesScale(t *testing.T) {
	for _, s := range []string{"-3", "0", "NaN", "+Inf"} {
		_, _, err := newApp([]string{"-real", "-scale", s, "table2"}, io.Discard, io.Discard)
		if err == nil || !strings.HasPrefix(err.Error(), "-scale") {
			t.Errorf("-scale %s: err %v, want a -scale error", s, err)
		}
	}
	if a, _ := mustApp(t, io.Discard, "-real", "-scale", "2.5", "table2"); a.scale != 2.5 {
		t.Errorf("-scale 2.5: scale %v", a.scale)
	}
}

// TestFig1CSVHasNoPlot pins that -csv fig1 writes only its title and CSV
// records: the ASCII Fig. 1b plot is text output only, as for fig3/fig4.
func TestFig1CSVHasNoPlot(t *testing.T) {
	var out strings.Builder
	mustRunAll(t, quickApp(t, &out, "-csv", "fig1"), "fig1")
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		rec, err := csv.NewReader(strings.NewReader(line)).Read()
		if err != nil || len(rec) != 8 {
			t.Fatalf("-csv fig1 line is not an 8-field record (%v): %q\n%s", err, line, out.String())
		}
	}
}

// TestFig2OrderIsFixed renders fig2 50 times: every output must be
// byte-identical, with the "all results" heatmap first.
func TestFig2OrderIsFixed(t *testing.T) {
	var out strings.Builder
	a := quickApp(t, &out, "fig2")
	mustRunAll(t, a, "fig2")
	first := out.String()
	all := strings.Index(first, "all results (")
	opt := strings.Index(first, "only optimal periods (")
	if all < 0 || opt < all {
		t.Fatalf("want \"all results\" before \"only optimal periods\":\n%s", first)
	}
	for i := 1; i < 50; i++ {
		out.Reset()
		if mustRunAll(t, a, "fig2"); out.String() != first {
			t.Fatalf("render %d differs:\n%s\n---\n%s", i, first, out.String())
		}
	}
}

// TestDocListsFlagsAndExperiments holds the package doc to the command:
// its Flags list names exactly the flags newApp registers, which -h
// lists, and its usage line exactly the experiments app.run dispatches on
// (app.drivers).
func TestDocListsFlagsAndExperiments(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	_, list, ok := strings.Cut(doc, "\nFlags:\n")
	if !ok {
		t.Fatal("the package doc has no Flags list")
	}
	var listed []string
	for _, line := range strings.Split(list, "\n") {
		if name, ok := strings.CutPrefix(line, "\t-"); ok {
			listed = append(listed, strings.Fields(name)[0])
		}
	}
	var help strings.Builder
	if _, _, err := newApp([]string{"-h"}, io.Discard, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var registered []string
	for _, line := range strings.Split(help.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			registered = append(registered, strings.Fields(name)[0])
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, registered) {
		t.Errorf("the Flags list names %v, newApp registers %v", listed, registered)
	}

	m := regexp.MustCompile(`experiments \[flags\] <([^>]*)>`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("the package doc has no usage line")
	}
	usage := strings.Split(m[1], "|")
	var dispatched []string
	for name := range new(app).drivers() {
		dispatched = append(dispatched, name)
	}
	slices.Sort(usage)
	slices.Sort(dispatched)
	if !slices.Equal(usage, dispatched) {
		t.Errorf("the usage line names %v, app.run dispatches on %v", usage, dispatched)
	}
}
