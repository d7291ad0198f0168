package main

import (
	"encoding/json"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/experiments"
)

func TestLoadChainFromJSON(t *testing.T) {
	c, interframe, err := loadChain("testdata/chain.json", "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 || interframe != 1 {
		t.Fatalf("len=%d interframe=%d", c.Len(), interframe)
	}
	if c.Task(1).Name != "filter" || !c.Task(1).Replicable {
		t.Errorf("task 1: %+v", c.Task(1))
	}
	if c.Task(2).W(core.Little) != 700 {
		t.Errorf("task 2 little weight %v", c.Task(2).W(core.Little))
	}
}

func TestLoadChainPlatforms(t *testing.T) {
	for _, name := range []string{"mac", "MacStudio", "x7", "X7Ti"} {
		c, interframe, err := loadChain("", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Len() != 23 || interframe < 4 {
			t.Errorf("%s: len=%d interframe=%d", name, c.Len(), interframe)
		}
	}
}

func TestLoadChainErrors(t *testing.T) {
	if _, _, err := loadChain("", "commodore64"); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, _, err := loadChain("testdata/missing.json", ""); err == nil {
		t.Error("missing file accepted")
	}
	if _, _, err := loadChain("main.go", ""); err == nil {
		t.Error("non-JSON file accepted")
	}
}

// invoke runs the command on args as main does and returns its exit code,
// stdout and stderr.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs the command on args, fails the test unless it exits 0 and
// returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := invoke(args...)
	if code != 0 {
		t.Fatalf("%q exited %d:\n%s", args, code, errOut)
	}
	return out
}

// TestRunExitCodes pins the exit code of each kind of invocation: 0 for
// -h and a good run, 2 for a flag the FlagSet refuses (every removed flag
// among them) and 1 for an error after parsing. A refusal writes nothing
// to stdout, and stderr carries the FlagSet's own message and usage once,
// with no "ampsched:" line, or one "ampsched:" line with the error.
func TestRunExitCodes(t *testing.T) {
	mac := []string{"-platform", "mac", "-resources", "16B,4L"}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // in stderr
	}{
		{[]string{"-h"}, 0, "-resources string"},
		{mac, 0, ""},
		{append(mac, "-slo", "x"), 2, "flag provided but not defined: -slo"},
		{append(mac, "-replan", "3"), 2, "not defined: -replan"},
		{append(mac, "-epsilon", "0.05"), 2, "not defined: -epsilon"},
		{append(mac, "-listen", "127.0.0.1:0"), 2, "not defined: -listen"},
		{append(mac, "-flight-dump", "x"), 2, "not defined: -flight-dump"},
		{append(mac, "-big", "16"), 2, "not defined: -big"},
		{append(mac, "-little", "4"), 2, "not defined: -little"},
		{append(mac, "-trace-sched", "x"), 2, "not defined: -trace-sched"},
		{append(mac, "-frames", "many"), 2, `invalid value "many" for flag -frames`},
		{append(mac, "-strategy", "2catac-memo"), 1, "2catac-memo"},
		{append(mac, "-run", "-frames", "1"), 1, "at least 2"},
		{[]string{"-platform", "mac", "-resources", "-1B,4L"}, 1, "invalid resource spec"},
		{[]string{"-input", "testdata/chain3.json", "-resources", "1B,1M,8L", "-strategy", "fertac"}, 1, "supports exactly 2 core types"},
		{[]string{"-platform", "mac", "typo", "-resources", "2B,2L"}, 1, "unexpected arguments"},
	} {
		code, out, errOut := invoke(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.stderr) {
			t.Errorf("%q: exit %d, want %d with %q on stderr:\n%s", tc.args, code, tc.code, tc.stderr, errOut)
		}
		if code == 0 {
			continue
		}
		if out != "" {
			t.Errorf("%q printed to stdout before refusing:\n%s", tc.args, out)
		}
		if code == 2 && (strings.Count(errOut, tc.stderr) != 1 || strings.Count(errOut, "Usage of ampsched:") != 1 ||
			strings.Contains("\n"+errOut, "\nampsched: ")) {
			t.Errorf("%q: stderr does not hold the error and the usage once each with no ampsched: line:\n%s", tc.args, errOut)
		}
		if code == 1 && (!strings.HasPrefix(errOut, "ampsched: ") || strings.Count(errOut, "\n") != 1) {
			t.Errorf("%q: stderr is not one ampsched: line:\n%s", tc.args, errOut)
		}
	}
}

// TestMainErrNonFiniteChain: two replicable tasks whose weights are
// each finite but sum past the float64 range are refused when the chain is
// loaded, for every strategy, instead of printing a period of +Inf.
func TestMainErrNonFiniteChain(t *testing.T) {
	in := filepath.Join(t.TempDir(), "huge.json")
	huge := `{"tasks": [
		{"name": "a", "big": 1e308, "little": 1e308, "replicable": true},
		{"name": "b", "big": 1e308, "little": 1e308, "replicable": true}]}`
	if err := os.WriteFile(in, []byte(huge), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"all", "2catac", "fertac", "otac-b"} {
		code, out, errOut := invoke("-input", in, "-resources", "2B,2L", "-strategy", s)
		if code != 1 || !strings.Contains(errOut, "finite") {
			t.Errorf("-strategy %s: exit %d, %s want a non-finite total weight refusal; printed:\n%s", s, code, errOut, out)
		}
	}
}

func TestStrategyList(t *testing.T) {
	all, err := strategyList("all")
	if err != nil || len(all) != 5 {
		t.Fatalf("all: %v %v", all, err)
	}
	for i, name := range experiments.Strategies {
		if all[i].Name() != name {
			t.Errorf("all[%d] = %q, want %q", i, all[i].Name(), name)
		}
	}
	for in, want := range map[string]string{
		"herad":    experiments.StratHeRAD,
		"2catac":   experiments.StratTwoCAT,
		"twocatac": experiments.StratTwoCAT,
		"FERTAC":   experiments.StratFERTAC,
		"otac-b":   experiments.StratOTACB,
		"OTACL":    experiments.StratOTACL,
		"ALL":      "", // expands, checked above; here: no error
		"brute":    "Brute",
	} {
		got, err := strategyList(in)
		if err != nil {
			t.Errorf("strategyList(%q): %v", in, err)
			continue
		}
		if want != "" && (len(got) != 1 || got[0].Name() != want) {
			t.Errorf("strategyList(%q) = %v", in, got)
		}
	}
	for _, name := range []string{"banana", "2catac-memo"} {
		if _, err := strategyList(name); err == nil {
			t.Errorf("unknown strategy %q accepted", name)
		}
	}
}

func TestMainErrEndToEnd(t *testing.T) {
	// Whole-pipeline smoke test through the CLI entry point (no -run).
	chain := []string{"-input", "testdata/chain.json", "-resources", "2B,2L"}
	if out := mustRun(t, append(chain, "-strategy", "all", "-simulate", "-colocate", "-power")...); out == "" {
		t.Error("-strategy all -simulate printed nothing")
	}
	// JSON output path.
	if out := mustRun(t, "-platform", "mac", "-resources", "8B,2L", "-json"); out == "" {
		t.Error("-json printed nothing")
	}
	// No resources.
	if code, _, _ := invoke("-input", "testdata/chain.json"); code != 1 {
		t.Errorf("zero resources: exit %d, want 1", code)
	}
}

func TestMainErrWatch(t *testing.T) {
	chain := []string{"-input", "testdata/chain.json", "-resources", "2B,2L"}
	// -watch without -run is rejected.
	code, _, errOut := invoke(append(chain, "-watch", "50ms")...)
	if code != 1 {
		t.Fatalf("-watch without -run: exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "-watch requires -run") {
		t.Errorf("error %q does not name the required flag combination", errOut)
	}
	// Live view during -run: at least the final window line must appear,
	// with per-stage occupancy and weight estimates.
	out := mustRun(t, append(chain, "-run", "-frames", "60", "-scale", "1", "-watch", "20ms")...)
	if !strings.Contains(out, "watch +") || !strings.Contains(out, "occ") || !strings.Contains(out, "p95") {
		t.Errorf("no live telemetry line in output:\n%s", out)
	}
	// -watch composes with -stats: the sampler publishes series under the
	// strategy slug and the stats table includes them.
	out = mustRun(t, append(chain, "-run", "-frames", "40", "-scale", "1", "-watch", "20ms", "-stats")...)
	if !strings.Contains(out, "streampu.latency_us.stage0") {
		t.Errorf("stats output missing sampled latency series:\n%s", out)
	}
}

func TestMainErrStats(t *testing.T) {
	chain := []string{"-input", "testdata/chain.json", "-resources", "2B,2L"}
	// -stats with every strategy: the metric table renders after the
	// schedules and collection does not disturb the results.
	if out := mustRun(t, append(chain, "-strategy", "all", "-stats")...); out == "" {
		t.Error("-stats printed nothing")
	}
	// -stats -json emits the obs report after the schedule objects.
	if out := mustRun(t, append(chain, "-strategy", "fertac", "-json", "-stats")...); out == "" {
		t.Error("-stats -json printed nothing")
	}
}

func TestMainErrProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if out := mustRun(t, "-input", "testdata/chain.json", "-resources", "2B,2L",
		"-cpuprofile", cpu, "-memprofile", mem); out == "" {
		t.Error("the profiled run printed nothing")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestConfigCheck drives every rule of config.check, and the -resources
// spec's own refusals, through the command line: each is refused with
// exit 1 before anything is printed or created, with an error that starts
// with the flag it names. The row's words follow a valid command line, so
// a repeated flag overrides it.
func TestConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-input", []string{"-platform", "mac"}},
		{"-input", []string{"-input", ""}},
		{"-resources", []string{"-resources", ""}},
		{"-resources", []string{"-resources", "-1B,4L"}},
		{"-resources", []string{"-resources", "0B,0L"}},
		{"-watch", []string{"-watch", "1ms"}},
		{"-watch", []string{"-run", "-watch", "-1ms"}},
		{"-interframe", []string{"-interframe", "-2"}},
		{"-frames", []string{"-run", "-frames", "0"}},
		{"-frames", []string{"-run", "-frames", "1"}},
		{"-scale", []string{"-run", "-scale", "-1"}},
		{"-scale", []string{"-run", "-scale", "+Inf"}},
		{"-explain", []string{"-explain", "-json"}},
		{"unexpected", []string{"typo", "-resources", "2B,2L"}},
	} {
		cpu := filepath.Join(t.TempDir(), "cpu.pprof")
		args := append([]string{"-input", "testdata/chain.json", "-resources", "2B,2L", "-cpuprofile", cpu}, tc.args...)
		code, out, errOut := invoke(args...)
		if code != 1 || !strings.HasPrefix(errOut, "ampsched: "+tc.flag+" ") {
			t.Errorf("%q: exit %d, %s want exit 1 with an error starting with %s", args, code, errOut, tc.flag)
		}
		if out != "" {
			t.Errorf("%q printed before rejecting:\n%s", args, out)
		}
		if _, err := os.Stat(cpu); !os.IsNotExist(err) {
			t.Errorf("%q created %s before rejecting", args, cpu)
		}
	}
}

// TestMainErrInterframe: an explicit -interframe wins over the platform's
// level, and 0 selects it. Mac Studio's level is 4, so HeRAD's 950.6 µs
// period on (16B,4L) reads 4208 FPS by default and 1e6/950.6 at 1.
func TestMainErrInterframe(t *testing.T) {
	for interframe, fps := range map[string]string{"0": " 4208 ", "1": " 1052 ", "2": " 2104 "} {
		out := mustRun(t, "-platform", "mac", "-resources", "16B,4L", "-interframe", interframe)
		if !strings.Contains(out, fps) {
			t.Errorf("-interframe %s: FPS is not%s:\n%s", interframe, fps, out)
		}
	}
}

// TestMainErrJSONStdoutIsJSON: under -json, stdout is JSON values only —
// one object per strategy carrying its desim and runtime results, then
// the -stats report — and every "# …" notice goes to stderr: a desim and
// a runtime line for each of the five strategies.
func TestMainErrJSONStdoutIsJSON(t *testing.T) {
	code, out, notices := invoke("-input", "testdata/chain.json", "-resources", "2B,2L", "-strategy", "all",
		"-simulate", "-run", "-frames", "20", "-scale", "1", "-interframe", "1", "-json", "-stats")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, notices)
	}
	if strings.Contains(out, "# ") {
		t.Errorf("a notice reached stdout:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(notices, "\n"), "\n")
	for i, line := range lines {
		if kind := []string{" desim: ", " runtime: "}[i%2]; !strings.HasPrefix(line, "# ") || !strings.Contains(line, kind) {
			t.Errorf("notice %d is %q, want a %q line", i, line, strings.TrimSpace(kind))
		}
	}
	if len(lines) != 10 {
		t.Errorf("%d notices, want a desim and a runtime line for each of 5 strategies:\n%s", len(lines), notices)
	}
	var values []map[string]any
	for dec := json.NewDecoder(strings.NewReader(out)); ; {
		var v map[string]any
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stdout is not JSON after %d values: %v", len(values), err)
		}
		values = append(values, v)
	}
	if len(values) != 6 {
		t.Fatalf("%d JSON values, want 5 schedules and the stats report", len(values))
	}
	for _, v := range values[:5] {
		for _, key := range []string{"desim", "runtime"} {
			if run, _ := v[key].(map[string]any); run["period"] == nil || run["fps"] == nil {
				t.Errorf("%v: %s object %v has no period and fps", v["strategy"], key, v[key])
			}
		}
	}
}

// TestMainErrPowerNeedsTwoTypes: the default power model has big and
// little watts only, so on a three-type platform it would charge the M
// core the little rate and the L cores nothing. -power is refused there
// before anything is planned or printed.
func TestMainErrPowerNeedsTwoTypes(t *testing.T) {
	code, out, errOut := invoke("-input", "testdata/chain3.json", "-resources", "1B,1M,8L", "-power")
	if code != 1 || !strings.HasPrefix(errOut, "ampsched: -power ") {
		t.Fatalf("exit %d, %s want an error naming -power", code, errOut)
	}
	if out != "" {
		t.Errorf("printed before rejecting:\n%s", out)
	}
}

// TestMainErrStagesUseTypeNames: the decomposition column and the JSON
// stage types name core types the way the usage columns do, through the
// platform's type table, not by their positional letters (B, L, T2).
func TestMainErrStagesUseTypeNames(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		stage string // in the text decomposition
		types []string
	}{
		{[]string{"-input", "testdata/chain3.json", "-resources", "1B,1M,8L"},
			"(1,1B),(1,8L),(1,1M)", []string{"B", "L", "M"}},
		{[]string{"-platform", "mac", "-resources", "4P,2E"},
			"(4,1E),(9,1P),(6,3P),(4,1E)", []string{"E", "P", "P", "E"}},
	} {
		if text := mustRun(t, tc.args...); !strings.Contains(text, tc.stage) {
			t.Errorf("%q: decomposition is not %s:\n%s", tc.args, tc.stage, text)
		}
		var sol jsonSolution
		if err := json.Unmarshal([]byte(mustRun(t, append(tc.args, "-json")...)), &sol); err != nil {
			t.Fatal(err)
		}
		var types []string
		for _, st := range sol.Stages {
			types = append(types, st.Type)
		}
		if strings.Join(types, ",") != strings.Join(tc.types, ",") {
			t.Errorf("%q: JSON stage types %v, want %v", tc.args, types, tc.types)
		}
	}
}

// TestDocListsFlags holds the package doc to the flags newConfig
// registers, which -h lists: each one is named in the doc as -name, and
// each entry of the doc's Flags list is registered.
func TestDocListsFlags(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?:^|[^\w-])-(\w[\w-]*)`).FindAllStringSubmatch(doc, -1) {
		named[m[1]] = true
	}
	registered := map[string]bool{}
	for _, name := range registeredFlags(t) {
		registered[name] = true
		if !named[name] {
			t.Errorf("flag -%s is not named in the package doc", name)
		}
	}
	_, list, ok := strings.Cut(doc, "\nFlags:\n")
	if !ok {
		t.Fatal("the package doc has no Flags list")
	}
	for _, line := range strings.Split(list, "\n") {
		if name, ok := strings.CutPrefix(line, "\t-"); ok && !registered[strings.Fields(name)[0]] {
			t.Errorf("the Flags list names -%s, which is not registered", strings.Fields(name)[0])
		}
	}
}

// registeredFlags returns the name of every flag newConfig registers, in
// the order -h lists them.
func registeredFlags(t *testing.T) []string {
	t.Helper()
	var usage strings.Builder
	if _, err := newConfig([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var names []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(name)[0])
		}
	}
	return names
}
