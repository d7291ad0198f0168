// Command ampsched schedules a partially-replicable task chain on k
// types of resources (the paper's R=(b,l) big/little platform is
// -resources 8B,2L; any type table is -resources 4B,2M,8L) and optionally
// validates the schedule by discrete-event simulation or by executing it
// on the streampu runtime with latency-modeled tasks.
//
// Usage:
//
//	ampsched -platform mac -resources 8B,2L [flags]
//	ampsched -input chain.json -resources 4B,2M,8L [flags]
//
// The chain comes from -input (JSON) or -platform (the embedded DVB-S2
// profiles "mac" / "x7"). JSON format (two-type chains may use the named
// big/little fields, k-type chains list one weight per core type):
//
//	{"tasks": [{"name": "t1", "big": 52.3, "little": 248.3, "replicable": false}, ...]}
//	{"tasks": [{"name": "t1", "weights": [52.3, 110.0, 248.3], "replicable": false}, ...]}
//
// Flags:
//
//	-resources R  per-type core counts as COUNT[NAME] components, e.g.
//	              "16B,4L" or "4B,2M,8L" (required; type order is
//	              precedence order). Strategies that only support the
//	              paper's two-type model reject other type counts.
//	-strategy S   herad|2catac|fertac|otac-b|otac-l|all (default herad);
//	              also the hidden registry entry brute (exhaustive
//	              reference — chains of ~12 tasks at most)
//	-simulate     validate with the discrete-event simulator
//	-run          execute on the streampu runtime (wall clock)
//	-frames N     frames for -run (default 100, at least 2)
//	-scale S      time scale for -run (default 10; finite, ≥ 0, 0 means 1)
//	-interframe N frames per pipeline slot for FPS reporting (default 0:
//	              the chain's own, the platform's or 1 for -input)
//	-json         print JSON only on stdout: one object per strategy (with
//	              desim and runtime results under -simulate and -run), then
//	              the -stats report; every "# …" notice goes to stderr
//	-colocate     fuse adjacent light single-core stages (§VII extension)
//	-power        report watts and mJ/frame under the default power model
//	              (two-type platforms only: it has big and little watts)
//	-watch D      with -run: print one line of live per-stage occupancy,
//	              weight estimate and p95 latency every interval D
//	-stats        report scheduler metrics (binary-search steps, DP
//	              cells, recursion nodes, …) after the schedules: a table
//	              in text mode, an internal/obs report in -json mode
//	-explain      print the decision-trace narrative after the schedules:
//	              why each strategy probed, pruned and placed what it did
//	              (text mode only)
//	-trace FILE   write the decision journal as canonical JSONL to FILE
//	              plus a Chrome-trace view (chrome://tracing) to
//	              FILE.chrome.json (FILE's .jsonl suffix replaced); under
//	              -run the view also carries each strategy's pipeline
//	              timeline, one process per strategy. Both files are
//	              written even when a later step fails
//	-cpuprofile F write a pprof CPU profile of the whole invocation
//	-memprofile F write a pprof heap profile taken at exit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/obs"
	"ampsched/internal/platform"
	"ampsched/internal/report"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
	"ampsched/internal/trace"
)

type jsonChain struct {
	Tasks []core.Task `json:"tasks"`
}

type jsonStage struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Cores int    `json:"cores"`
	Type  string `json:"type"`
}

type jsonSolution struct {
	Strategy string      `json:"strategy"`
	Period   float64     `json:"period"`
	Stages   []jsonStage `json:"stages"`
	BigUsed  int         `json:"big_used"`
	LitUsed  int         `json:"little_used"`
	// Usage lists the per-type core usage when the platform declares a
	// type table other than the paper's two-type one.
	Usage   []int    `json:"usage,omitempty"`
	Desim   *jsonRun `json:"desim,omitempty"`
	Runtime *jsonRun `json:"runtime,omitempty"`
}

// jsonRun is one validation of a schedule: the desim prediction carries
// its latency, the runtime measurement its frame count.
type jsonRun struct {
	Period  float64 `json:"period"`
	FPS     float64 `json:"fps"`
	Latency float64 `json:"latency,omitempty"`
	Frames  int     `json:"frames,omitempty"`
}

// config carries every CLI flag. newConfig builds it from the command
// line for main and for every test alike; run then sets the writers.
type config struct {
	input      string // JSON task-chain file
	platform   string // embedded DVB-S2 profile name
	resources  string // k-type resource spec, e.g. "4B,2M,8L"
	strategy   string
	simulate   bool
	run        bool
	frames     int
	scale      float64
	interframe int // 0 = the chain's own
	json       bool
	colocate   bool
	power      bool
	trace      string        // decision-journal JSONL output path
	watch      time.Duration // live telemetry interval for -run (0 = off)
	stats      bool          // report scheduler metrics after the schedules
	explain    bool          // print the decision-trace narrative
	cpuProfile string        // pprof CPU profile output path
	memProfile string        // pprof heap profile output path

	// out and errOut are stdout and stderr. Under -json, where stdout
	// carries JSON values only, every "# …" notice goes to errOut.
	out, errOut io.Writer
}

// check applies every rule that reads only flags and args, the words
// left after them. Each error starts with the flag it names, or with
// "unexpected" for args.
func (c config) check(args []string) error {
	for _, r := range []struct {
		bad bool
		err string
	}{
		{len(args) > 0, fmt.Sprintf("unexpected arguments %q: ampsched takes flags only, and flag parsing stops at the first other word, so the flags after it would be dropped", args)},
		{c.input != "" && c.platform != "", "-input and -platform are exclusive: pass one chain source"},
		{c.input == "" && c.platform == "", "-input FILE or -platform mac|x7 is required"},
		{c.resources == "", `-resources is required: the core count of each type, e.g. "16B,4L"`},
		{c.watch != 0 && !c.run, "-watch requires -run: the live view samples the streampu pipeline while it executes (pass -run, or drop -watch)"},
		{c.watch < 0, fmt.Sprintf("-watch must be a positive interval, got %v", c.watch)},
		{c.interframe < 0, fmt.Sprintf("-interframe must be >= 0 frames per pipeline slot (0 means the chain's own), got %d", c.interframe)},
		{c.run && c.frames < 2, fmt.Sprintf("-frames must be at least 2 under -run: one departure gives no period, got %d", c.frames)},
		{c.run && (c.scale < 0 || math.IsNaN(c.scale) || math.IsInf(c.scale, 0)), fmt.Sprintf("-scale must be a finite time scale >= 0 under -run (0 means 1), got %v", c.scale)},
		{c.explain && c.json, "-explain prints a text narrative, which -json output cannot carry (use -trace for a machine-readable journal)"},
	} {
		if r.bad {
			return errors.New(r.err)
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, writing to stdout and stderr. It returns 0
// on success or -h, 2 for a flag the FlagSet refuses (and has reported
// with the usage) and 1 for any other error.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := newConfig(args, stderr)
	if err == nil {
		cfg.out, cfg.errOut = stdout, stderr
		err = mainErr(cfg)
	}
	var refused flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &refused):
		return 2
	}
	fmt.Fprintln(stderr, "ampsched:", err)
	return 1
}

// flagError is a parse error the FlagSet has already written with the usage.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// newConfig parses args, the words after the command name, into a config
// and applies every rule that reads only flags (check). Its FlagSet writes
// its own errors and the usage to stderr.
func newConfig(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("ampsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.input, "input", "", "JSON task-chain file")
	fs.StringVar(&cfg.platform, "platform", "", `embedded DVB-S2 profile: "mac" or "x7"`)
	fs.StringVar(&cfg.resources, "resources", "", `per-type core counts, e.g. "16B,4L" or "4B,2M,8L"`)
	fs.StringVar(&cfg.strategy, "strategy", "herad", "herad|2catac|fertac|otac-b|otac-l|all (or brute)")
	fs.BoolVar(&cfg.simulate, "simulate", false, "validate with the discrete-event simulator")
	fs.BoolVar(&cfg.run, "run", false, "execute on the streampu runtime")
	fs.IntVar(&cfg.frames, "frames", 100, "frames for -run")
	fs.Float64Var(&cfg.scale, "scale", 10, "time scale for -run")
	fs.IntVar(&cfg.interframe, "interframe", 0, "frames per pipeline slot for FPS reporting (0 = the chain's own: the platform's, 1 for -input)")
	fs.BoolVar(&cfg.json, "json", false, "print JSON only on stdout (notices go to stderr)")
	fs.BoolVar(&cfg.colocate, "colocate", false, "fuse adjacent light single-core stages (saves cores at equal period)")
	fs.BoolVar(&cfg.power, "power", false, "report power/energy under the default power model")
	fs.StringVar(&cfg.trace, "trace", "", "write the decision journal (JSONL + .chrome.json view, with the pipeline timelines under -run) to this file")
	fs.DurationVar(&cfg.watch, "watch", 0, `with -run: print live per-stage occupancy, weight estimate and p95 latency every interval (e.g. "500ms")`)
	fs.BoolVar(&cfg.stats, "stats", false, "report scheduler metrics (table, or obs report in -json mode)")
	fs.BoolVar(&cfg.explain, "explain", false, "print the decision-trace narrative after the schedules (text mode only)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return cfg, flagError{err}
	}
	return cfg, cfg.check(fs.Args())
}

// mainErr runs the command cfg describes; newConfig has checked it.
func mainErr(cfg config) error {
	out, notes := cfg.out, cfg.out // notes receives every "# …" notice
	if cfg.json {
		notes = cfg.errOut
	}
	scheds, err := strategyList(cfg.strategy)
	if err != nil {
		return err
	}
	r, err := core.ParseResources(cfg.resources)
	if err != nil {
		return fmt.Errorf("-resources %q: %w", cfg.resources, err)
	}
	if r.Total() <= 0 {
		return fmt.Errorf("-resources %q declares no core", cfg.resources)
	}
	pm := core.DefaultPowerModel()
	if cfg.power && r.NumTypes() != len(pm.Watts) {
		return fmt.Errorf("-power needs exactly %d core types (the default power model's big and little), resources %v declare %d",
			len(pm.Watts), r, r.NumTypes())
	}
	chain, interframe, err := loadChain(cfg.input, cfg.platform)
	if err != nil {
		return err
	}
	if cfg.interframe > 0 {
		interframe = cfg.interframe
	}

	// Exit artifacts are deferred before any work that can fail, so a
	// failing step still flushes everything gathered up to the error. LIFO
	// order: the CPU profile stops after every other artifact is written.
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memProfile != "" {
		// After a final GC, so the profile shows live allocations only.
		defer warnOnError(cfg.errOut, func() error {
			return writeFile(cfg.memProfile, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			})
		})
	}
	var journal *trace.Journal
	var runSpan *trace.Span
	if cfg.explain || cfg.trace != "" {
		journal = trace.New()
		runSpan = journal.Root().Str("tool", "ampsched").Str("strategy", cfg.strategy)
		if r.NumTypes() == 2 {
			runSpan.Int("big", r.Count(core.Big)).Int("little", r.Count(core.Little))
		} else {
			runSpan.Str("resources", r.String())
		}
		runSpan.Bool("colocate", cfg.colocate)
	}
	// timeline gathers each -run's pipeline events (process 1+i for the
	// i-th strategy) for the journal's Chrome view.
	var timeline []trace.ChromeEvent
	if cfg.trace != "" {
		defer warnOnError(cfg.errOut, func() error {
			if err := writeFile(cfg.trace, journal.WriteJSONL); err != nil {
				return err
			}
			return writeFile(chromeSiblingPath(cfg.trace), func(w io.Writer) error {
				return journal.WriteChromeTrace(w, timeline...)
			})
		})
	}

	var reg *obs.Registry
	if cfg.stats {
		reg = obs.NewRegistry()
	}
	header := []string{"Strategy", "Period", "FPS", "Pipeline decomposition"}
	for v := 0; v < r.NumTypes(); v++ {
		header = append(header, strings.ToLower(r.TypeName(core.CoreType(v))))
	}
	if cfg.power {
		header = append(header, "W", "mJ/frame")
	}
	t := report.NewTable(header...)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	opts := strategy.Options{Colocate: cfg.colocate, Metrics: reg, Trace: runSpan}
	for i, sc := range scheds {
		name := sc.Name()
		sol, err := plan(sc, chain, r, opts)
		if err != nil {
			return err
		}
		var sim, run *jsonRun
		if cfg.simulate {
			res, err := desim.Simulate(chain, sol, desim.Config{Frames: 2000, QueueCap: 2})
			if err != nil {
				return err
			}
			sim = &jsonRun{Period: res.Period, FPS: res.Throughput(interframe), Latency: res.Latency}
			fmt.Fprintf(notes, "# %s desim: period %.1f, FPS %.0f, latency %.1f\n",
				name, sim.Period, sim.FPS, sim.Latency)
		}
		if cfg.run {
			var tr *streampu.Tracer
			if cfg.trace != "" {
				tr = &streampu.Tracer{}
			}
			st, err := execute(cfg, notes, sc, chain, sol, reg, tr)
			if tr != nil {
				timeline = append(timeline, tr.ChromeEvents(1+i, name)...)
			}
			if err != nil {
				return err
			}
			run = &jsonRun{Period: st.PeriodMicros, FPS: st.Throughput(interframe), Frames: st.Frames}
			fmt.Fprintf(notes, "# %s runtime: measured period %.1f, FPS %.0f (%d frames, %.2fs wall)\n",
				name, run.Period, run.FPS, run.Frames, st.Elapsed.Seconds())
		}
		p := sol.Period(chain)
		usage := sol.Usage(r.NumTypes())
		if cfg.json {
			js := jsonSolution{Strategy: name, Period: p, BigUsed: usage[0], Desim: sim, Runtime: run}
			if len(usage) > 1 {
				js.LitUsed = usage[1]
			}
			if r.NumTypes() != 2 {
				js.Usage = usage
			}
			for _, st := range sol.Stages {
				js.Stages = append(js.Stages, jsonStage{
					Start: st.Start, End: st.End, Cores: st.Cores, Type: r.TypeName(st.Type),
				})
			}
			if err := enc.Encode(js); err != nil {
				return err
			}
			continue
		}
		row := []any{name, p, fmt.Sprintf("%.0f", core.Throughput(p, interframe)), sol.Named(r)}
		for _, u := range usage {
			row = append(row, u)
		}
		if cfg.power {
			row = append(row, pm.Power(sol), 1000*pm.EnergyPerFrame(sol, p))
		}
		t.AddRow(row...)
	}
	if !cfg.json {
		t.Render(out)
	}
	if cfg.explain {
		fmt.Fprintln(out, "# decision trace")
		if err := journal.WriteExplain(out); err != nil {
			return err
		}
	}
	if cfg.stats {
		return emitStats(out, reg, cfg.json)
	}
	return nil
}

// plan schedules chain on r with one strategy and refuses an empty or
// invalid schedule.
func plan(sc strategy.Scheduler, chain *core.Chain, r core.Resources, opts strategy.Options) (core.Solution, error) {
	name := sc.Name()
	if err := strategy.CheckTypes(sc, chain, r); err != nil {
		return core.Solution{}, err
	}
	sol := sc.Schedule(chain, r, opts)
	if sol.IsEmpty() {
		return sol, fmt.Errorf("%s found no schedule for R=%v", name, r)
	}
	if err := sol.Validate(chain, r); err != nil {
		return sol, fmt.Errorf("%s produced an invalid schedule: %v", name, err)
	}
	return sol, nil
}

// execute runs the schedule on the streampu runtime with the sampler and
// -watch loop the flags ask for, recording its timeline into tr if set.
func execute(cfg config, notes io.Writer, sc strategy.Scheduler, chain *core.Chain, sol core.Solution,
	reg *obs.Registry, tr *streampu.Tracer) (streampu.Stats, error) {
	popt := streampu.Options{TimeScale: cfg.scale, QueueCap: 2, Tracer: tr}
	if cfg.watch > 0 || cfg.stats {
		// The live telemetry lands under the strategy's slug, next to its
		// planning series.
		popt.Sampler = streampu.NewSampler(strategy.MetricsScope(sc, reg))
	}
	pipe, err := streampu.New(streampu.TimedChain(chain), sol, popt)
	if err != nil {
		return streampu.Stats{}, err
	}
	stopWatch := startWatch(notes, sc.Name(), cfg.watch, popt.Sampler)
	st, err := pipe.Run(cfg.frames, nil)
	stopWatch()
	return st, err
}

// startWatch launches the -watch loop: every interval it closes a
// sampling window and prints one live telemetry line. The returned stop
// function halts the loop, prints the final window and blocks until the
// goroutine exits. Without watching, the run is one window, which stop
// closes silently so -stats reads each stage's occupancy over the run.
func startWatch(out io.Writer, name string, every time.Duration, s *streampu.Sampler) func() {
	if every <= 0 || s == nil {
		return func() { s.Sample(time.Now()) }
	}
	start := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				printWatch(out, name, now.Sub(start), s.Sample(now))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		now := time.Now()
		printWatch(out, name, now.Sub(start), s.Sample(now))
	}
}

// printWatch renders one live telemetry line: per-stage windowed
// occupancy and weight estimate plus the cumulative p95 latency, all in
// the modeled time base.
func printWatch(out io.Writer, name string, elapsed time.Duration, snap []streampu.StageSample) {
	if len(snap) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s watch +%.1fs", name, elapsed.Seconds())
	for _, ss := range snap {
		fmt.Fprintf(&b, " | s%d×%d occ %3.0f%% w %.0fµs p95 %.0fµs",
			ss.Stage, ss.Workers, 100*ss.Occupancy, ss.WeightEstimate, ss.P95)
	}
	fmt.Fprintln(out, b.String())
}

// writeFile creates path, lets write fill it and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// warnOnError reports a failed exit artifact on stderr without failing
// the command, whose own error (if any) is the one that matters.
func warnOnError(stderr io.Writer, write func() error) {
	if err := write(); err != nil {
		fmt.Fprintln(stderr, "ampsched:", err)
	}
}

// chromeSiblingPath maps the JSONL journal path to its Chrome-view sibling:
// sched.jsonl → sched.chrome.json, anything else gets .chrome.json appended.
func chromeSiblingPath(path string) string {
	return strings.TrimSuffix(path, ".jsonl") + ".chrome.json"
}

// emitStats renders the collected scheduler metrics: an aligned table in
// text mode, the internal/obs JSON report (schema shared with
// cmd/experiments' metrics.json) in -json mode.
func emitStats(out io.Writer, reg *obs.Registry, asJSON bool) error {
	if asJSON {
		return obs.NewReport("ampsched", reg).WriteJSON(out)
	}
	fmt.Fprintln(out, "# scheduler metrics")
	t := report.NewTable("Metric", "Kind", "Count", "Value")
	for _, s := range reg.Snapshot() {
		value := "-"
		switch s.Kind {
		case obs.KindGauge:
			value = fmt.Sprintf("%g", s.Value)
		case obs.KindTimer:
			value = fmt.Sprintf("%.3fms total", float64(s.TotalNs)/1e6)
		case obs.KindLogHistogram:
			if q := s.Quantiles; q != nil {
				value = fmt.Sprintf("p50 %.1f p95 %.1f p99 %.1f", q.P50, q.P95, q.P99)
			}
		case obs.KindSeries:
			value = fmt.Sprintf("%g (last of %d)", s.Value, s.Count)
		}
		t.AddRow(s.Name, string(s.Kind), s.Count, value)
	}
	t.Render(out)
	return nil
}

// loadChain reads the chain from the embedded platform profile or the
// JSON file, with its interframe level (1 for a file). check has already
// made sure exactly one of the two is set.
func loadChain(input, plat string) (*core.Chain, int, error) {
	if plat != "" {
		var p *platform.Platform
		switch strings.ToLower(plat) {
		case "mac", "macstudio", "mac-studio":
			p = platform.MacStudio()
		case "x7", "x7ti", "x7-ti":
			p = platform.X7Ti()
		default:
			return nil, 0, fmt.Errorf("unknown platform %q (want mac or x7)", plat)
		}
		return p.Chain(), p.Interframe, nil
	}
	data, err := os.ReadFile(input)
	if err != nil {
		return nil, 0, err
	}
	var jc jsonChain
	if err := json.Unmarshal(data, &jc); err != nil {
		return nil, 0, fmt.Errorf("parsing %s: %w", input, err)
	}
	c, err := core.NewChain(jc.Tasks)
	return c, 1, err
}

// strategyList resolves the -strategy flag through the registry: "all"
// expands to every non-hidden strategy in the paper's order, anything else
// must parse as a registered name or alias.
func strategyList(s string) ([]strategy.Scheduler, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return strategy.All(), nil
	}
	sc, err := strategy.Parse(s)
	if err != nil {
		return nil, err
	}
	return []strategy.Scheduler{sc}, nil
}
