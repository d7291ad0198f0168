package main

import (
	"bytes"
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
	if _, _, err := loadChain("", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, _, err := loadChain("testdata/chain.json", "mac"); err == nil {
		t.Error("both sources accepted")
	}
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
		"herad":       experiments.StratHeRAD,
		"2catac":      experiments.StratTwoCAT,
		"twocatac":    experiments.StratTwoCAT,
		"FERTAC":      experiments.StratFERTAC,
		"otac-b":      experiments.StratOTACB,
		"OTACL":       experiments.StratOTACL,
		"ALL":         "", // expands, checked above; here: no error
		"2catac-memo": "2CATAC (memo)",
		"brute":       "Brute",
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
	if _, err := strategyList("banana"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestMainErrEndToEnd(t *testing.T) {
	// Whole-pipeline smoke test through the CLI entry point (no -run).
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "all", simulate: true, frames: 10, scale: 1, interframe: 1,
		colocate: true, power: true}); err != nil {
		t.Fatal(err)
	}
	// JSON output path.
	if err := mainErr(config{platform: "mac", big: 8, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
		json: true}); err != nil {
		t.Fatal(err)
	}
	// No resources.
	if err := mainErr(config{input: "testdata/chain.json",
		strategy: "herad", frames: 10, scale: 1, interframe: 1}); err == nil {
		t.Error("zero resources accepted")
	}
}

func TestMainErrTraceRequiresRun(t *testing.T) {
	err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
		trace: filepath.Join(t.TempDir(), "trace.json")})
	if err == nil {
		t.Fatal("-trace without -run accepted")
	}
	if !strings.Contains(err.Error(), "-trace requires -run") {
		t.Errorf("error %q does not name the required flag combination", err)
	}
}

func TestMainErrWatch(t *testing.T) {
	// -watch without -run is rejected, like -trace.
	err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
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
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", run: true, frames: 60, scale: 1, interframe: 1,
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
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", run: true, frames: 40, scale: 1, interframe: 1,
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
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "all", frames: 10, scale: 1, interframe: 1,
		stats: true}); err != nil {
		t.Fatal(err)
	}
	// -stats -json emits the obs report after the schedule objects.
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "fertac", frames: 10, scale: 1, interframe: 1,
		json: true, stats: true}); err != nil {
		t.Fatal(err)
	}
}

func TestMainErrProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
		cpuProfile: cpu, memProfile: mem}); err != nil {
		t.Fatal(err)
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

func TestMainErrEpsilon(t *testing.T) {
	// A positive slack plans through HeRAD's ε-beam fill.
	var out strings.Builder
	if err := mainErr(config{input: "testdata/chain.json", big: 2, little: 2,
		strategy: "herad", frames: 10, scale: 1, interframe: 1,
		epsilon: 0.05, out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "HeRAD") {
		t.Errorf("no schedule row in output:\n%s", out.String())
	}
	// Invalid numeric flags are rejected before any planning, naming the
	// flag: nothing is printed.
	base := config{input: "testdata/chain.json", big: 2, little: 2, strategy: "all",
		frames: 10, scale: 1, interframe: 1}
	for _, tc := range []struct {
		flag string
		edit func(*config)
	}{
		{"-epsilon", func(c *config) { c.epsilon = -0.1 }},
		{"-epsilon", func(c *config) { c.epsilon = math.NaN() }},
		{"-interframe", func(c *config) { c.interframe = -2 }},
		{"-frames", func(c *config) { c.run, c.frames = true, 0 }},
		{"-scale", func(c *config) { c.run, c.scale = true, -1 }},
		{"-scale", func(c *config) { c.run, c.scale = true, math.Inf(1) }},
	} {
		cfg := base
		tc.edit(&cfg)
		var out strings.Builder
		cfg.out = &out
		err := mainErr(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("config %+v: error %v, want one naming %s", cfg, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("config %+v printed before rejecting:\n%s", cfg, out.String())
		}
	}
}
