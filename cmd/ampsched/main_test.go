package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
		var out strings.Builder
		err := mainErr(config{input: in, resources: "2B,2L", strategy: s, frames: 10, scale: 1, out: &out})
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("-strategy %s: error %v, want a non-finite total weight refusal; printed:\n%s", s, err, out.String())
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
	var buf bytes.Buffer
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "all", simulate: true, frames: 10, scale: 1, interframe: 0,
		colocate: true, power: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("-strategy all -simulate printed nothing")
	}
	// JSON output path.
	buf.Reset()
	if err := mainErr(config{platform: "mac", resources: "8B,2L",
		strategy: "herad", frames: 10, scale: 1, interframe: 0,
		json: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("-json printed nothing")
	}
	// No resources.
	if err := mainErr(config{input: "testdata/chain.json",
		strategy: "herad", frames: 10, scale: 1, interframe: 0, out: &buf}); err == nil {
		t.Error("zero resources accepted")
	}
}

func TestMainErrWatch(t *testing.T) {
	// -watch without -run is rejected.
	err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "herad", frames: 10, scale: 1, interframe: 0,
		watch: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("-watch without -run accepted")
	}
	if !strings.Contains(err.Error(), "-watch requires -run") {
		t.Errorf("error %q does not name the required flag combination", err)
	}
	// Live view during -run: at least the final window line must appear,
	// with per-stage occupancy and weight estimates.
	var buf bytes.Buffer
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "herad", run: true, frames: 60, scale: 1, interframe: 0,
		watch: 20 * time.Millisecond, out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "watch +") || !strings.Contains(out, "occ") || !strings.Contains(out, "p95") {
		t.Errorf("no live telemetry line in output:\n%s", out)
	}
	// -watch composes with -stats: the sampler publishes series under the
	// strategy slug and the stats table includes them.
	buf.Reset()
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "herad", run: true, frames: 40, scale: 1, interframe: 0,
		watch: 20 * time.Millisecond, stats: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "streampu.latency_us.stage0") {
		t.Errorf("stats output missing sampled latency series:\n%s", buf.String())
	}
}

func TestMainErrStats(t *testing.T) {
	// -stats with every strategy: the metric table renders after the
	// schedules and collection does not disturb the results.
	var buf bytes.Buffer
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "all", frames: 10, scale: 1, interframe: 0,
		stats: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("-stats printed nothing")
	}
	// -stats -json emits the obs report after the schedule objects.
	buf.Reset()
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "fertac", frames: 10, scale: 1, interframe: 0,
		json: true, stats: true, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("-stats -json printed nothing")
	}
}

func TestMainErrProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L",
		strategy: "herad", frames: 10, scale: 1, interframe: 0,
		cpuProfile: cpu, memProfile: mem, out: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
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
// spec's own refusals, through mainErr: each is refused before anything is
// printed or created, with an error that starts with the flag it names.
func TestConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		flag string
		edit func(*config)
	}{
		{"-input", func(c *config) { c.platform = "mac" }},
		{"-input", func(c *config) { c.input = "" }},
		{"-resources", func(c *config) { c.resources = "" }},
		{"-resources", func(c *config) { c.resources = "-1B,4L" }},
		{"-resources", func(c *config) { c.resources = "0B,0L" }},
		{"-watch", func(c *config) { c.watch = time.Millisecond }},
		{"-watch", func(c *config) { c.run, c.watch = true, -time.Millisecond }},
		{"-interframe", func(c *config) { c.interframe = -2 }},
		{"-frames", func(c *config) { c.run, c.frames = true, 0 }},
		{"-frames", func(c *config) { c.run, c.frames = true, 1 }},
		{"-scale", func(c *config) { c.run, c.scale = true, -1 }},
		{"-scale", func(c *config) { c.run, c.scale = true, math.Inf(1) }},
		{"-explain", func(c *config) { c.explain, c.json = true, true }},
		{"unexpected", func(c *config) { c.args = []string{"typo", "-resources", "2B,2L"} }},
	} {
		dir := t.TempDir()
		cfg := config{input: "testdata/chain.json", resources: "2B,2L", strategy: "herad",
			frames: 10, scale: 1, cpuProfile: filepath.Join(dir, "cpu.pprof")}
		tc.edit(&cfg)
		var out strings.Builder
		cfg.out = &out
		err := mainErr(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("config %+v: error %v, want one starting with %s", cfg, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("config %+v printed before rejecting:\n%s", cfg, out.String())
		}
		if _, err := os.Stat(cfg.cpuProfile); !os.IsNotExist(err) {
			t.Errorf("config %+v created %s before rejecting", cfg, cfg.cpuProfile)
		}
	}
}

// TestMainErrInterframe: an explicit -interframe wins over the platform's
// level, and 0 selects it. Mac Studio's level is 4, so HeRAD's 950.6 µs
// period on (16B,4L) reads 4208 FPS by default and 1e6/950.6 at 1.
func TestMainErrInterframe(t *testing.T) {
	for interframe, fps := range map[int]string{0: " 4208 ", 1: " 1052 ", 2: " 2104 "} {
		var out strings.Builder
		if err := mainErr(config{platform: "mac", resources: "16B,4L", strategy: "herad",
			frames: 10, scale: 1, interframe: interframe, out: &out}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), fps) {
			t.Errorf("-interframe %d: FPS is not%s:\n%s", interframe, fps, out.String())
		}
	}
}

// TestMainErrJSONStdoutIsJSON: under -json, stdout is JSON values only —
// one object per strategy carrying its desim and runtime results, then
// the -stats report — and every "# …" notice goes to the notice writer:
// a desim and a runtime line for each of the five strategies.
func TestMainErrJSONStdoutIsJSON(t *testing.T) {
	var out, notices bytes.Buffer
	if err := mainErr(config{input: "testdata/chain.json", resources: "2B,2L", strategy: "all",
		simulate: true, run: true, frames: 20, scale: 1, interframe: 1, json: true, stats: true,
		out: &out, notices: &notices}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "# ") {
		t.Errorf("a notice reached stdout:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSuffix(notices.String(), "\n"), "\n")
	for i, line := range lines {
		if kind := []string{" desim: ", " runtime: "}[i%2]; !strings.HasPrefix(line, "# ") || !strings.Contains(line, kind) {
			t.Errorf("notice %d is %q, want a %q line", i, line, strings.TrimSpace(kind))
		}
	}
	if len(lines) != 10 {
		t.Errorf("%d notices, want a desim and a runtime line for each of 5 strategies:\n%s", len(lines), notices.String())
	}
	var values []map[string]any
	for dec := json.NewDecoder(&out); ; {
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
	var out strings.Builder
	err := mainErr(config{input: "testdata/chain3.json", resources: "1B,1M,8L",
		strategy: "herad", frames: 10, scale: 1, interframe: 0, power: true, out: &out})
	if err == nil || !strings.HasPrefix(err.Error(), "-power ") {
		t.Fatalf("error %v, want one naming -power", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed before rejecting:\n%s", out.String())
	}
}

// TestMainErrStagesUseTypeNames: the decomposition column and the JSON
// stage types name core types the way the usage columns do, through the
// platform's type table, not by their positional letters (B, L, T2).
func TestMainErrStagesUseTypeNames(t *testing.T) {
	for _, tc := range []struct {
		cfg   config
		stage string // in the text decomposition
		types []string
	}{
		{config{input: "testdata/chain3.json", resources: "1B,1M,8L"},
			"(1,1B),(1,8L),(1,1M)", []string{"B", "L", "M"}},
		{config{platform: "mac", resources: "4P,2E"},
			"(4,1E),(9,1P),(6,3P),(4,1E)", []string{"E", "P", "P", "E"}},
	} {
		cfg := tc.cfg
		cfg.strategy, cfg.frames, cfg.scale, cfg.interframe = "herad", 10, 1, 0
		var text bytes.Buffer
		cfg.out = &text
		if err := mainErr(cfg); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), tc.stage) {
			t.Errorf("%s: decomposition is not %s:\n%s", cfg.resources, tc.stage, text.String())
		}
		var js bytes.Buffer
		cfg.json, cfg.out = true, &js
		if err := mainErr(cfg); err != nil {
			t.Fatal(err)
		}
		var sol jsonSolution
		if err := json.Unmarshal(js.Bytes(), &sol); err != nil {
			t.Fatal(err)
		}
		var types []string
		for _, st := range sol.Stages {
			types = append(types, st.Type)
		}
		if strings.Join(types, ",") != strings.Join(tc.types, ",") {
			t.Errorf("%s: JSON stage types %v, want %v", cfg.resources, types, tc.types)
		}
	}
}
