// Command benchreport runs the repository's performance micro-benchmarks —
// the strategy registry dispatch, the obs metrics layer, the decision-trace
// journal, the HeRAD fill sweep, the large-n exact-vs-ε-beam scaling rows
// and the incremental replan rows — and writes a machine-
// readable JSON report with ns/op, allocs/op and B/op per benchmark. CI
// publishes the report as an artifact next to the coverage profile so
// performance regressions show up in review instead of in production.
//
// The report also enforces the repository's hard guarantees:
//
//   - every benchmark of a disabled (nil-sink, nil-journal) path must
//     measure exactly 0 allocs/op;
//   - with -baseline, every guarded benchmark (the HeRAD fills) must stay
//     within -maxregress percent of the committed report.
//     Machines differ, so the comparison is normalized by the calibrate/
//     benchmark measured in the same run: what is gated is the ratio of a
//     guarded fill to a small serial fill, not raw nanoseconds.
//
// benchreport exits non-zero when either check fails.
//
// Usage:
//
//	benchreport [-o BENCH_PR15.json] [-benchtime 100ms] [-match herad]
//	            [-baseline BENCH_PR15.json] [-maxregress 25] [-list]
//	            [-statusz statusz.json] [-statusz-zero-timers]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -statusz-zero-timers zeroes the wall-clock timer totals in the statusz
// snapshot — the one nondeterministic family in the scenario — so the
// artifact is fully byte-deterministic and can be diffed across runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	obshttp "ampsched/internal/obs/http"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
	"ampsched/internal/streampu/ring"
	"ampsched/internal/trace"
)

// Schema versions the report shape.
const Schema = 1

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// PinZeroAllocs marks the disabled-path benchmarks whose allocs/op
	// must be exactly zero (enforced, not just reported).
	PinZeroAllocs bool `json:"pin_zero_allocs,omitempty"`
	// Guard marks the benchmarks gated against a -baseline report: the
	// HeRAD fills whose calibrated ns/op must not regress.
	Guard bool `json:"guard,omitempty"`
}

// Report is the full benchmark export.
type Report struct {
	Schema     int      `json:"schema"`
	Tool       string   `json:"tool"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

// bench is one registered benchmark: fn must perform n iterations.
type bench struct {
	name    string
	pinZero bool
	guard   bool
	fn      func(n int)
}

// gateOptions configures the -baseline regression gate.
type gateOptions struct {
	baseline   string  // committed report path; empty disables the gate
	maxRegress float64 // allowed calibrated slowdown, percent
}

// statuszOptions configures the -statusz artifact.
type statuszOptions struct {
	path       string // output path; empty disables the snapshot
	zeroTimers bool   // zero wall-clock timer totals for byte-determinism
}

func main() {
	out := flag.String("o", "BENCH_PR15.json", "report output path")
	benchtime := flag.Duration("benchtime", 100*time.Millisecond, "target measuring time per benchmark")
	match := flag.String("match", "", "run only benchmarks whose name contains this substring")
	baseline := flag.String("baseline", "", "committed report to gate guarded benchmarks against")
	maxRegress := flag.Float64("maxregress", 25, "allowed calibrated slowdown vs -baseline, percent")
	list := flag.Bool("list", false, "list benchmark names and exit")
	statusz := flag.String("statusz", "", "write a /statusz JSON snapshot of a representative instrumented run to this file")
	statuszZeroTimers := flag.Bool("statusz-zero-timers", false, "zero wall-clock timer totals in the -statusz snapshot (byte-deterministic artifact)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()
	g := gateOptions{baseline: *baseline, maxRegress: *maxRegress}
	sz := statuszOptions{path: *statusz, zeroTimers: *statuszZeroTimers}
	if err := run(*out, *benchtime, *match, g, *list, sz, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// run wraps mainErr with the pprof exit artifacts (mirroring cmd/ampsched:
// the CPU profile covers the whole benchmark run, the heap profile is
// taken at exit — so scaling-sweep hotspots can be profiled directly from
// the bench harness the numbers come from).
func run(out string, benchtime time.Duration, match string, g gateOptions, list bool, statusz statuszOptions, cpuProfile, memProfile string) (err error) {
	if cpuProfile != "" {
		f, cerr := os.Create(cpuProfile)
		if cerr != nil {
			return cerr
		}
		defer f.Close()
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return fmt.Errorf("starting CPU profile: %w", cerr)
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, merr := os.Create(memProfile)
			if merr == nil {
				runtime.GC()
				merr = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); merr == nil {
					merr = cerr
				}
			}
			if merr != nil && err == nil {
				err = fmt.Errorf("heap profile: %w", merr)
			}
		}()
	}
	return mainErr(out, benchtime, match, g, list, statusz, os.Stdout)
}

func mainErr(out string, benchtime time.Duration, match string, g gateOptions, list bool, statusz statuszOptions, w io.Writer) error {
	benches := benchmarks()
	if match != "" {
		kept := benches[:0]
		for _, b := range benches {
			if strings.Contains(b.name, match) || b.name == calibrateName {
				kept = append(kept, b)
			}
		}
		benches = kept
	}
	if list {
		for _, b := range benches {
			fmt.Fprintln(w, b.name)
		}
		return nil
	}
	rep := Report{
		Schema:    Schema,
		Tool:      "benchreport",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	var pinFailures []string
	for _, b := range benches {
		res := measure(b, benchtime)
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(w, "%-32s %12.1f ns/op %10.1f allocs/op %12.1f B/op\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		if b.pinZero && res.AllocsPerOp != 0 {
			pinFailures = append(pinFailures,
				fmt.Sprintf("%s: %v allocs/op (want 0)", res.Name, res.AllocsPerOp))
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "# report written to %s\n", out)
	for _, fail := range pinFailures {
		fmt.Fprintln(w, "# PIN VIOLATION:", fail)
	}
	if len(pinFailures) > 0 {
		return fmt.Errorf("%d disabled-path benchmark(s) allocate", len(pinFailures))
	}
	if g.baseline != "" {
		if err := gate(rep, g, w); err != nil {
			return err
		}
	}
	if statusz.path != "" {
		if err := writeStatusz(statusz); err != nil {
			return fmt.Errorf("statusz: %w", err)
		}
		fmt.Fprintf(w, "# statusz snapshot written to %s\n", statusz.path)
	}
	return nil
}

// writeStatusz produces the /statusz artifact CI publishes next to the
// bench report: a deterministic instrumented run — one HeRAD schedule
// with metrics, then a sampled desim execution feeding the drift
// detector — snapshotted through the same WriteStatusz path the live
// endpoint serves.
func writeStatusz(opts statuszOptions) error {
	reg := obs.NewRegistry()
	c := chaingen.GenerateMany(chaingen.Default(20, 0.5), 7, 1)[0]
	r := core.Res(4, 4)
	sc := strategy.MustParse("herad")
	sol := sc.Schedule(c, r, strategy.Options{Metrics: reg})
	if sol.IsEmpty() {
		return fmt.Errorf("no schedule for the statusz scenario")
	}
	sreg := strategy.MetricsScope(sc, reg)
	planned := make([]float64, len(sol.Stages))
	for i, st := range sol.Stages {
		planned[i] = c.SumW(st.Start, st.End, st.Type)
	}
	d := obs.NewDriftDetector(planned, obs.DriftConfig{}, sreg, nil)
	if _, err := desim.Simulate(c, sol, desim.Config{
		Frames: 1000,
		Steps:  []desim.WeightStep{{AfterFrame: 500, Stage: len(sol.Stages) - 1, Factor: 2}},
		Sample: &desim.SampleConfig{Metrics: sreg, Drift: d},
	}); err != nil {
		return err
	}
	f, err := os.Create(opts.path)
	if err != nil {
		return err
	}
	if err := obshttp.WriteStatuszOpts(f, "benchreport", reg,
		obshttp.StatuszOptions{ZeroTimers: opts.zeroTimers}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// calibrateName is the normalization benchmark of the -baseline gate: a
// small HeRAD fill whose current/baseline ratio captures how much
// faster or slower this machine is than the one that produced the
// committed report. Gating the calibrated ratio instead of raw ns/op
// makes the check portable across CI runner generations.
const calibrateName = "calibrate/herad_serial"

// gate fails when a guarded benchmark regressed more than g.maxRegress
// percent against the baseline report, after calibration. Guarded
// benchmarks missing from the baseline are reported and skipped — a new
// benchmark has no history to regress against.
func gate(cur Report, g gateOptions, w io.Writer) error {
	raw, err := os.ReadFile(g.baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", g.baseline, err)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
	}
	curNs := make(map[string]float64, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curNs[b.Name] = b.NsPerOp
	}
	if baseNs[calibrateName] <= 0 || curNs[calibrateName] <= 0 {
		return fmt.Errorf("gate needs %q in both reports (baseline %v ns/op, current %v ns/op)",
			calibrateName, baseNs[calibrateName], curNs[calibrateName])
	}
	scale := curNs[calibrateName] / baseNs[calibrateName]
	var failures []string
	for _, b := range cur.Benchmarks {
		if !b.Guard || b.Name == calibrateName {
			continue
		}
		bn, ok := baseNs[b.Name]
		if !ok {
			fmt.Fprintf(w, "# gate: %s has no baseline entry, skipped\n", b.Name)
			continue
		}
		allowed := bn * scale * (1 + g.maxRegress/100)
		delta := (b.NsPerOp/(bn*scale) - 1) * 100
		fmt.Fprintf(w, "# gate: %-40s %+7.1f%% calibrated (limit %+.0f%%)\n", b.Name, delta, g.maxRegress)
		if b.NsPerOp > allowed {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op exceeds calibrated limit %.0f ns/op (%+.1f%%)",
					b.Name, b.NsPerOp, allowed, delta))
		}
	}
	for _, fail := range failures {
		fmt.Fprintln(w, "# GATE VIOLATION:", fail)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d guarded benchmark(s) regressed beyond %.0f%%", len(failures), g.maxRegress)
	}
	return nil
}

// measure calibrates b.fn to roughly benchtime and reports per-op cost.
// Allocation counts come from runtime.MemStats deltas around the measured
// run (GC forced before, so the deltas are the benchmark's own).
//
// Rows the -baseline gate inspects — the guarded benchmarks and the
// calibrate row that anchors their normalization — are re-measured up to
// three more times, keeping the fastest run and stopping early once a
// sample lands within 5% of the running min. Machine contention is
// one-sided (it only ever slows), so a reproduced min is the benchmark's
// real cost while an unreproduced one may still be inflated and is worth
// another sample. This matters most for ops that exceed benchtime (the
// large-n herad/scale and herad/replan rows, measured one-shot, where a
// transient load spike lands entirely on the single sample), but guarded
// multi-iteration rows average over the whole window and flake the same
// way under sustained load, so they get the same treatment. Unguarded
// rows keep the single cheap measurement: nothing gates on them.
func measure(b bench, benchtime time.Duration) Result {
	res := measureOnce(b, benchtime)
	if !b.guard && b.name != calibrateName {
		return res
	}
	for i := 0; i < 3; i++ {
		again := measureOnce(b, benchtime)
		reproduced := again.NsPerOp < res.NsPerOp*1.05
		if again.NsPerOp < res.NsPerOp {
			res = again
		}
		if reproduced {
			break
		}
	}
	return res
}

func measureOnce(b bench, benchtime time.Duration) Result {
	b.fn(1) // warm-up: lazy initialization outside the measurement
	n := int64(1)
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		b.fn(int(n))
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= benchtime || n >= 1e9 {
			return Result{
				Name:          b.name,
				Iters:         n,
				NsPerOp:       float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(n),
				BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
				PinZeroAllocs: b.pinZero,
				Guard:         b.guard,
			}
		}
		// Grow like the testing package: aim for benchtime, capped growth.
		next := int64(float64(n) * float64(benchtime) / float64(elapsed+1) * 1.2)
		if next < n+1 {
			next = n + 1
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}

// benchmarks builds the suite. Inputs are deterministic (fixed chain
// generator seed) so successive reports measure the same workload.
func benchmarks() []bench {
	chains := chaingen.GenerateMany(chaingen.Default(20, 0.5), 7, 8)
	r := core.Res(10, 10)
	herad := strategy.MustParse("herad")

	// A populated journal for the export benchmarks, matching the shape a
	// real -trace-sched run produces.
	exportJournal := trace.New()
	seedJournal(exportJournal, chains[0], r)

	// The live ring for flight/record_enabled, allocated outside the
	// measured loop: the pin asserts Record itself never allocates.
	flightRec := flight.New(0)

	// Shared state for the streampu/ring and frames_steady rows,
	// likewise allocated outside the measured loops.
	benchSPSC := ring.NewSPSC[*streampu.Frame](8)
	benchMPMC := ring.NewMPMC[*streampu.Frame](8)
	benchPool := streampu.NewFramePool(8)
	benchFrame := &streampu.Frame{}
	benchFrameCh := make(chan *streampu.Frame, 8)

	benches := []bench{
		{name: "registry/schedule_disabled", pinZero: false, fn: func(n int) {
			for i := 0; i < n; i++ {
				if s := herad.Schedule(chains[i%len(chains)], r, strategy.Options{}); s.IsEmpty() {
					panic("no schedule")
				}
			}
		}},
		{name: "registry/schedule_metrics", fn: func(n int) {
			reg := obs.NewRegistry()
			for i := 0; i < n; i++ {
				if s := herad.Schedule(chains[i%len(chains)], r, strategy.Options{Metrics: reg}); s.IsEmpty() {
					panic("no schedule")
				}
			}
		}},
		{name: "registry/schedule_traced", fn: func(n int) {
			for i := 0; i < n; i++ {
				j := trace.New()
				if s := herad.Schedule(chains[i%len(chains)], r, strategy.Options{Trace: j.Root()}); s.IsEmpty() {
					panic("no schedule")
				}
			}
		}},
		{name: "obs/ops_disabled", pinZero: true, fn: func(n int) {
			var reg *obs.Registry
			for i := 0; i < n; i++ {
				m := reg.Sub("herad")
				m.Counter("schedule.calls").Inc()
				m.Gauge("workers").Set(8)
				m.Timer("schedule.ns").Start()()
			}
		}},
		{name: "obs/ops_enabled", fn: func(n int) {
			reg := obs.NewRegistry().Sub("herad")
			for i := 0; i < n; i++ {
				reg.Counter("schedule.calls").Inc()
				reg.Gauge("workers").Set(8)
				reg.Timer("schedule.ns").Start()()
			}
		}},
		{name: "obs/series/disabled", pinZero: true, fn: func(n int) {
			var s *obs.Series
			for i := 0; i < n; i++ {
				s.Append(int64(i), 1.5)
			}
		}},
		{name: "obs/series/enabled", fn: func(n int) {
			s := obs.NewSeries(obs.DefaultSeriesCap)
			for i := 0; i < n; i++ {
				s.Append(int64(i), 1.5)
			}
		}},
		{name: "obs/histogram/disabled", pinZero: true, fn: func(n int) {
			var h *obs.LogHistogram
			for i := 0; i < n; i++ {
				h.Observe(float64(i%1000) + 0.5)
			}
		}},
		{name: "obs/histogram/enabled", fn: func(n int) {
			h := obs.NewLogHistogram()
			for i := 0; i < n; i++ {
				h.Observe(float64(i%1000) + 0.5)
			}
		}},
		{name: "streampu/sampled/disabled", pinZero: true, fn: func(n int) {
			var s *streampu.Sampler
			for i := 0; i < n; i++ {
				s.Record(0, time.Microsecond)
			}
		}},
		{name: "streampu/sampled/enabled", fn: func(n int) {
			s := streampu.NewSampler(nil)
			s.BindStages([]int{1, 2}, 1, time.Now())
			for i := 0; i < n; i++ {
				s.Record(i%2, time.Microsecond)
			}
		}},
		// The ring boundary primitives behind the pipeline's inter-stage
		// hand-off, pinned at 0 allocs/op: a push+pop round trip through
		// the SPSC matrix queue and the MPMC frame free list.
		{name: "streampu/ring/spsc", pinZero: true, fn: func(n int) {
			f := benchFrame
			for i := 0; i < n; i++ {
				benchSPSC.TryPush(f)
				benchSPSC.TryPop()
			}
		}},
		{name: "streampu/ring/mpmc", pinZero: true, fn: func(n int) {
			f := benchFrame
			for i := 0; i < n; i++ {
				benchMPMC.TryPush(f)
				benchMPMC.TryPop()
			}
		}},
		// The full steady-state frame hop — acquire from the pool, stamp,
		// hand through a boundary queue, release — in the ring shape
		// (pinned 0 allocs/op; the warm-up lap fills the free list) and
		// the pre-rework channel shape (per-frame &Frame{} plus a channel
		// round trip), kept as the comparison row the ring must beat.
		{name: "streampu/frames_steady/ring", pinZero: true, fn: func(n int) {
			for i := 0; i < n; i++ {
				f := benchPool.Get()
				f.Seq = uint64(i)
				benchSPSC.TryPush(f)
				if g, ok := benchSPSC.TryPop(); ok {
					benchPool.Put(g)
				}
			}
		}},
		{name: "streampu/frames_steady/channel", fn: func(n int) {
			for i := 0; i < n; i++ {
				f := &streampu.Frame{Seq: uint64(i)}
				benchFrameCh <- f
				<-benchFrameCh
			}
		}},
		// The flight recorder pins zero allocations on BOTH paths: the nil
		// recorder (every subsystem's default) and the live ring, whose
		// Record is a ticket fetch-add plus atomic field stores — the
		// black box must never perturb the run it observes.
		{name: "flight/record_disabled", pinZero: true, fn: func(n int) {
			var rec *flight.Recorder
			for i := 0; i < n; i++ {
				rec.Record(flight.Event{Code: flight.CodeWindow, Tick: int64(i), A: 0.5, B: 120})
			}
		}},
		{name: "flight/record_enabled", pinZero: true, fn: func(n int) {
			for i := 0; i < n; i++ {
				flightRec.Record(flight.Event{Code: flight.CodeWindow, Tick: int64(i), Stage: 1, A: 0.5, B: 120})
			}
		}},
		{name: "trace/journal_disabled", pinZero: true, fn: func(n int) {
			var sc *trace.Scope
			for i := 0; i < n; i++ {
				if sc.Enabled() {
					panic("nil scope enabled")
				}
				sc.Event("probe").F64("target", 412.5).Bool("valid", true)
				sp, exit := sc.Enter("probe")
				sp.Int("cores", 4)
				exit()
			}
		}},
		{name: "trace/journal_enabled", fn: func(n int) {
			j := trace.New()
			sc := trace.NewScope(j.Root())
			for i := 0; i < n; i++ {
				sp, exit := sc.Enter("probe")
				sp.F64("target", 412.5)
				sc.Event("compute_stage").Int("first_task", i).Int("cores", 2)
				exit()
			}
		}},
		{name: "trace/jsonl_export", fn: func(n int) {
			for i := 0; i < n; i++ {
				if err := exportJournal.WriteJSONL(io.Discard); err != nil {
					panic(err)
				}
			}
		}},
		{name: "trace/explain_export", fn: func(n int) {
			for i := 0; i < n; i++ {
				if err := exportJournal.WriteExplain(io.Discard); err != nil {
					panic(err)
				}
			}
		}},
		{name: "trace/chrome_export", fn: func(n int) {
			for i := 0; i < n; i++ {
				if err := exportJournal.WriteChromeTrace(io.Discard); err != nil {
					panic(err)
				}
			}
		}},
	}
	benches = append(benches, heradFill()...)
	benches = append(benches, heradScale()...)
	return append(benches, heradReplan()...)
}

// heradScale is the large-n sweep behind the ε-beam fill: exact HeRAD
// against the ε fill on chains one to two orders of magnitude past the
// herad/fill sizes, where the O(n²) split-point scan dominates. The exact
// rows pin the baseline; the ε rows are guarded too, so a change that
// silently erodes the beam pruning (and with it the headline speedup)
// fails the gate just like a slowdown of the exact fill.
func heradScale() []bench {
	c2k := chaingen.GenerateMany(chaingen.Default(2048, 0.5), 11, 1)[0]
	c4k := chaingen.GenerateMany(chaingen.Default(4096, 0.5), 11, 1)[0]
	run := func(c *core.Chain, eps float64) func(int) {
		return fillBench(c, core.Res(4, 4), herad.Options{Epsilon: eps})
	}
	return []bench{
		{name: "herad/scale/n2048_b4_l4/exact", guard: true, fn: run(c2k, 0)},
		{name: "herad/scale/n2048_b4_l4/eps=0.01", guard: true, fn: run(c2k, 0.01)},
		{name: "herad/scale/n2048_b4_l4/eps=0.05", guard: true, fn: run(c2k, 0.05)},
		{name: "herad/scale/n4096_b4_l4/exact", guard: true, fn: run(c4k, 0)},
		{name: "herad/scale/n4096_b4_l4/eps=0.05", guard: true, fn: run(c4k, 0.05)},
	}
}

// heradReplan measures the chain-edit warm start: one op is "react to a
// tail reweigh", either by scheduling the edited chain from scratch or by
// applying the same edit to an incumbent herad.Planner (refilling the 8
// invalidated tail rows out of 2048) and extracting the solution. The two
// paths produce bit-identical schedules (planner_test.go), so the row pair
// is a pure wall-clock comparison. The edit alternates scale 1.25/0.8 so
// the workload is stationary across iterations.
var replanIncumbent *herad.Planner

func heradReplan() []bench {
	const tasks = 2048
	base := chaingen.GenerateMany(chaingen.Default(tasks, 0.5), 17, 1)[0]
	r := core.Res(4, 4)
	edit := tasks - 8
	retask := func(t core.Task, scale float64) core.Task {
		w := append([]float64(nil), t.Weight...)
		for v := range w {
			w[v] *= scale
		}
		return core.Task{Name: t.Name, Weight: w, Replicable: t.Replicable}
	}
	scales := [2]float64{1.25, 0.8}
	return []bench{
		{name: "herad/replan/n2048_b4_l4/scratch", guard: true, fn: func(n int) {
			cur := base
			for i := 0; i < n; i++ {
				ts := cur.Tasks()
				ts[edit] = retask(ts[edit], scales[i%2])
				c, err := core.NewChain(ts)
				if err != nil {
					panic(err)
				}
				cur = c
				if s := herad.Schedule(cur, r); s.IsEmpty() {
					panic("no schedule")
				}
			}
		}},
		{name: "herad/replan/n2048_b4_l4/edit_tail", guard: true, fn: func(n int) {
			// Built once, during measure's warm-up call: the incumbent's
			// initial full fill is the cost the warm starts amortize away.
			if replanIncumbent == nil {
				p, err := herad.NewPlanner(base, r, herad.Options{})
				if err != nil {
					panic(err)
				}
				replanIncumbent = p
			}
			p := replanIncumbent
			for i := 0; i < n; i++ {
				t := p.Chain().Task(edit)
				if err := p.Reweigh(edit, retask(t, scales[i%2])); err != nil {
					panic(err)
				}
				if s := p.Solution(); s.IsEmpty() {
					panic("no schedule")
				}
			}
		}},
	}
}

// fillBench is one HeRAD schedule of c on r under o per iteration.
func fillBench(c *core.Chain, r core.Resources, o herad.Options) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			if s := herad.ScheduleOpts(c, r, o); s.IsEmpty() {
				panic("no schedule")
			}
		}
	}
}

// heradFill builds the fill sweep: HeRAD's DP across growing (tasks,
// cores) problem sizes on two core types, plus a three-type platform. The
// rows are guarded — the fill is the path every schedule depends on — and
// the small calibrate fill anchors the cross-machine normalization of the
// gate.
func heradFill() []bench {
	out := []bench{{
		name: calibrateName,
		fn:   fillBench(chaingen.GenerateMany(chaingen.Default(20, 0.5), 7, 1)[0], core.Res(8, 8), herad.Options{}),
	}}
	for _, sz := range []struct{ n, b, l int }{{24, 8, 8}, {48, 16, 16}, {64, 24, 24}} {
		out = append(out, bench{
			name:  fmt.Sprintf("herad/fill/n%d_b%d_l%d", sz.n, sz.b, sz.l),
			guard: true,
			fn:    fillBench(chaingen.GenerateMany(chaingen.Default(sz.n, 0.5), 11, 1)[0], core.Res(sz.b, sz.l), herad.Options{}),
		})
	}
	return append(out, bench{
		name:  "herad/fill/n24_k3",
		guard: true,
		fn:    fillBench(chaingen.GenerateMany(chaingen.Default3(24, 0.5), 13, 1)[0], core.Res(8, 4, 4), herad.Options{}),
	})
}

// seedJournal fills j with a real scheduling trace: every registered
// strategy over (c, r), the same tree "-strategy all -trace-sched" builds.
func seedJournal(j *trace.Journal, c *core.Chain, r core.Resources) {
	for _, s := range strategy.All() {
		s.Schedule(c, r, strategy.Options{Trace: j.Root()})
	}
}
