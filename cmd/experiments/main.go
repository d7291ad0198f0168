// Command experiments regenerates every table and figure of the paper's
// evaluation (§VI): Table I and Figs. 1–4 from the synthetic simulation
// campaign, Tables II–III and Fig. 5 from the DVB-S2 experiment, and the
// Fig. 6 summary. Results print as aligned text tables (or CSV) with the
// same rows/series the paper reports.
//
// Usage:
//
//	experiments [flags] <table1|fig1|fig2|fig3|fig4|table2|table3|fig5|fig6|live|sensitivity|latency|all>
//
// Flags:
//
//	-chains N    chains per scenario for table1/fig1/fig2 (default 1000)
//	-runs N      chains per timing point for fig3/fig4 (default 50)
//	-quick       shrink every campaign (CI-friendly): -chains and -runs
//	             default to 100 and 10 unless passed, and fig3/fig4 stop
//	             at 40 tasks
//	-csv         emit CSV instead of text tables
//	-real        execute Table II schedules on the streampu runtime
//	-scale S     time scale for -real runs (default 10; finite, > 0)
//	-workers N   concurrent planning workers (default 0 = one per CPU)
//	-metrics F   write a machine-readable metrics report (default
//	             metrics.json; "" disables collection entirely)
//
// Every campaign of a run plans through one shared strategy.Cache, so a
// request an earlier campaign solved is served, not re-solved (fig6 re-runs
// table1's scenarios, for one). Results are identical either way: every
// strategy is deterministic. Table II is measured once per run: fig5 and
// fig6 read the rows table2 printed.
//
// The metrics report aggregates every scheduler-side series the run
// produced (per-strategy counters/timers, PlanBatch batch series
// including planbatch.cache.hits/misses, streampu stage occupancy for
// -real runs) plus Go runtime statistics; see internal/obs.Report for
// the schema.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"ampsched/internal/core"
	"ampsched/internal/dvbs2"
	"ampsched/internal/experiments"
	"ampsched/internal/obs"
	"ampsched/internal/report"
	"ampsched/internal/stats"
	"ampsched/internal/strategy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on args, writing to stdout and stderr. It returns 0
// on success or -h, 2 for a command line newApp refuses and 1 for an
// error of the experiment or its metrics report.
func run(args []string, stdout, stderr io.Writer) int {
	a, cmd, err := newApp(args, stdout, stderr)
	code := 2
	if err == nil {
		if code, err = 1, a.run(cmd); err == nil {
			err = a.writeMetrics()
		}
	}
	var refused flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case !errors.As(err, &refused):
		fmt.Fprintln(stderr, "experiments:", err)
	}
	return code
}

// flagError is a parse error the FlagSet has already written with the usage.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// newApp parses args, the words after the command name, into the run's
// app, which writes to out and errOut, and the experiment to run.
func newApp(args []string, out, errOut io.Writer) (*app, string, error) {
	a := &app{out: out, errOut: errOut, campaign: experiments.Campaign{Cache: strategy.NewCache()}}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.IntVar(&a.chains, "chains", 1000, "chains per scenario (Table I, Figs. 1-2)")
	fs.IntVar(&a.runs, "runs", 50, "chains per timing point (Figs. 3-4)")
	fs.BoolVar(&a.quick, "quick", false, "shrink all campaigns for quick runs")
	fs.BoolVar(&a.csv, "csv", false, "emit CSV instead of aligned text")
	fs.BoolVar(&a.real, "real", false, "run Table II schedules on the streampu runtime (wall clock)")
	fs.Float64Var(&a.scale, "scale", 10, "time scale for -real runs")
	fs.IntVar(&a.campaign.Workers, "workers", 0, "concurrent planning workers (0 = one per CPU, 1 = serial)")
	fs.StringVar(&a.metricsPath, "metrics", "metrics.json", `metrics report path ("" disables collection)`)
	if err := fs.Parse(args); err != nil {
		return nil, "", flagError{err}
	}
	if a.quick { // -quick shrinks only the counts args leaves unset
		small := map[string]string{"chains": "100", "runs": "10"}
		fs.Visit(func(f *flag.Flag) { delete(small, f.Name) })
		for name, n := range small {
			_ = fs.Set(name, n) // "100" and "10" always parse
		}
	}
	if a.chains < 1 {
		return nil, "", fmt.Errorf("-chains must be at least 1, got %d", a.chains)
	}
	if a.runs < 1 {
		return nil, "", fmt.Errorf("-runs must be at least 1, got %d", a.runs)
	}
	if a.campaign.Workers < 0 {
		return nil, "", fmt.Errorf("-workers must be >= 0 (0 means one per CPU), got %d", a.campaign.Workers)
	}
	if !(a.scale > 0) || math.IsInf(a.scale, 1) {
		return nil, "", fmt.Errorf("-scale must be a finite time scale > 0, got %v", a.scale)
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		fs.Usage()
		return nil, "", errors.New("missing experiment name")
	}
	if fs.NArg() > 1 {
		return nil, "", fmt.Errorf("unexpected arguments %q after experiment %s: flags go before the experiment name, and one experiment runs at a time", fs.Args()[1:], cmd)
	}
	if a.metricsPath != "" {
		a.campaign.Metrics = obs.NewRegistry()
	}
	return a, cmd, nil
}

type app struct {
	chains, runs int
	quick        bool
	csv, real    bool
	scale        float64
	metricsPath  string
	out, errOut  io.Writer // the command's stdout and stderr

	// campaign plans every campaign of the run: one pool size, one metrics
	// registry (nil disables collection) and one solution cache, so e.g.
	// fig6's Table I re-run hits table1's entries.
	campaign experiments.Campaign

	t1cache []experiments.Table1Cell
	// t2cache holds the Table II rows once measured, so fig5 and fig6
	// read the rows table2 printed rather than running them again.
	t2cache []experiments.Table2Row
}

// writeMetrics exports the run's metric series as a machine-readable
// report. Series names are sorted and counters are deterministic, so two
// identical runs differ only in the timestamp, runtime statistics, and
// wall-clock-valued series.
func (a *app) writeMetrics() error {
	if a.campaign.Metrics == nil || a.metricsPath == "" {
		return nil
	}
	if err := obs.WriteFile(a.metricsPath, "experiments", a.campaign.Metrics); err != nil {
		return fmt.Errorf("writing metrics report: %w", err)
	}
	fmt.Fprintf(a.errOut, "experiments: metrics report written to %s\n", a.metricsPath)
	return nil
}

// drivers maps each experiment name to its driver.
func (a *app) drivers() map[string]func() error {
	return map[string]func() error{
		"table1": a.table1, "fig1": a.fig1, "fig2": a.fig2, "fig3": a.fig3, "fig4": a.fig4,
		"table2": func() error { _, err := a.table2(); return err },
		"table3": a.table3, "fig5": a.fig5, "fig6": a.fig6, "live": a.live,
		"sensitivity": a.sensitivity, "latency": a.latency, "all": a.all,
	}
}

func (a *app) run(cmd string) error {
	if d, ok := a.drivers()[cmd]; ok {
		return d()
	}
	return fmt.Errorf("unknown experiment %q", cmd)
}

// all runs the paper's campaigns one after the other.
func (a *app) all() error {
	for _, c := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "table3", "table2", "fig5", "fig6"} {
		fmt.Fprintf(a.out, "\n================ %s ================\n", c)
		if err := a.run(c); err != nil {
			return err
		}
	}
	return nil
}

func (a *app) emit(t *report.Table) {
	if a.csv {
		t.CSV(a.out)
	} else {
		t.Render(a.out)
	}
	fmt.Fprintln(a.out)
}

func (a *app) table1Cells() []experiments.Table1Cell {
	if a.t1cache == nil {
		cfg := experiments.DefaultTable1Config()
		cfg.Campaign, cfg.Chains = a.campaign, a.chains
		a.t1cache = experiments.Table1(cfg)
	}
	return a.t1cache
}

func (a *app) table1() error {
	fmt.Fprintf(a.out, "Table I — simulation statistics (%d chains × %d tasks per scenario)\n\n", a.chains, experiments.Table1Tasks)
	t := report.NewTable("R", "SR", "Strategy", "%opt", "avg", "med", "max", "b_used", "l_used")
	for _, c := range a.table1Cells() {
		t.AddRow(c.R.String(), fmt.Sprintf("%.1f", c.SR), c.Strategy,
			fmt.Sprintf("%.1f", c.PctOptimal), c.AvgSlowdown, c.MedSlowdown,
			c.MaxSlowdown, c.AvgBigUsed, c.AvgLitUsed)
	}
	a.emit(t)
	return nil
}

func (a *app) fig1() error {
	fmt.Fprintf(a.out, "Fig. 1 — cumulative distributions of slowdown ratios vs HeRAD\n\n")
	series := experiments.Fig1(a.table1Cells())
	// Fig. 1a: fraction of chains within the zoomed slowdown interval.
	t := report.NewTable("R", "SR", "Strategy", "P(≤1.0)", "P(≤1.1)", "P(≤1.25)", "P(≤1.5)", "max")
	for _, s := range series {
		last := s.CDF[len(s.CDF)-1].X
		t.AddRow(s.R.String(), fmt.Sprintf("%.1f", s.SR), s.Strategy,
			stats.CDFAt(s.CDF, 1.0), stats.CDFAt(s.CDF, 1.1),
			stats.CDFAt(s.CDF, 1.25), stats.CDFAt(s.CDF, 1.5), last)
	}
	a.emit(t)
	if a.csv {
		return nil // Fig. 1b is an ASCII plot, which CSV output cannot carry
	}
	// Fig. 1b: the full-range plot for R = (10,10).
	var plot []report.Series
	for _, s := range series {
		if s.R != core.Res(10, 10) || s.SR != 0.5 {
			continue
		}
		var xs, ys []float64
		for _, p := range s.CDF {
			xs = append(xs, p.X)
			ys = append(ys, p.P)
		}
		plot = append(plot, report.Series{Name: s.Strategy, X: xs, Y: ys})
	}
	report.LogPlot(a.out, "Fig. 1b (R=(10B,10L), SR=0.5): CDF(P, log) vs slowdown", plot, 60, 12)
	return nil
}

func (a *app) fig2() error {
	cfg := experiments.DefaultTable1Config()
	cfg.Campaign, cfg.Chains = a.campaign, a.chains
	res := experiments.Fig2(cfg)
	fmt.Fprintf(a.out, "Fig. 2 — FERTAC−HeRAD core-usage deltas, R=%v SR=%.1f (%d chains)\n\n",
		res.R, res.SR, res.All.Total())
	names := []string{"all results", "only optimal periods"}
	for i, h := range []*stats.Hist2D{res.All, res.Opt} {
		one, two := experiments.ExtraCoresAtMost(h, 1), experiments.ExtraCoresAtMost(h, 2)
		fmt.Fprintf(a.out, "%s (%d samples): ≤1 extra core %.1f%%, ≤2 extra cores %.1f%%",
			names[i], h.Total(), 100*one, 100*two)
		if h == res.Opt { // the same counts as shares of every chain
			all := float64(h.Total()) / float64(res.All.Total())
			fmt.Fprintf(a.out, " (of all %d chains: %.1f%%, %.1f%%)", res.All.Total(), 100*one*all, 100*two*all)
		}
		fmt.Fprintln(a.out)
		xmin, xmax, ymin, ymax := h.Bounds()
		header := []string{"Δbig\\Δlittle"}
		for y := ymin; y <= ymax; y++ {
			header = append(header, fmt.Sprintf("%+d", y))
		}
		t := report.NewTable(header...)
		for x := xmin; x <= xmax; x++ {
			row := []any{fmt.Sprintf("%+d", x)}
			for y := ymin; y <= ymax; y++ {
				row = append(row, fmt.Sprintf("%.1f%%", 100*h.Fraction(x, y)))
			}
			t.AddRow(row...)
		}
		a.emit(t)
	}
	return nil
}

func (a *app) fig3() error {
	taskCounts := []int{20, 40, 60, 80, 100, 120, 140, 160}
	if a.quick {
		taskCounts = []int{20, 40} // 2CATAC at 60 tasks on (100,100) takes seconds per chain
	}
	fmt.Fprintf(a.out, "Fig. 3 — strategy execution times (µs) vs number of tasks (%d runs/point)\n\n", a.runs)
	for _, r := range []core.Resources{core.Res(20, 20), core.Res(100, 100)} {
		a.timing(fmt.Sprintf("R=%v", r), taskCounts, []core.Resources{r}, "tasks")
	}
	return nil
}

func (a *app) fig4() error {
	resources := []core.Resources{}
	for i := 1; i <= 8; i++ {
		resources = append(resources, core.Res(20*i, 20*i))
	}
	taskCounts := []int{20, 60}
	if a.quick {
		resources, taskCounts = resources[:3], []int{20, 40}
	}
	fmt.Fprintf(a.out, "Fig. 4 — strategy execution times (µs) vs resources (%d runs/point)\n\n", a.runs)
	for _, n := range taskCounts {
		a.timing(fmt.Sprintf("%d tasks", n), []int{n}, resources, "cores")
	}
	return nil
}

// timing times every strategy at SR 0.2, 0.5 and 0.8 on each of tasks
// and rs, a.runs chains per point, and renders the titled table and plot
// against xAxis.
func (a *app) timing(title string, tasks []int, rs []core.Resources, xAxis string) {
	cfg := experiments.DefaultTimingConfig()
	cfg.Chains = a.runs
	pts := experiments.Timing(cfg, tasks, rs, []float64{0.2, 0.5, 0.8})
	fmt.Fprintln(a.out, "--", title)
	t := report.NewTable("Strategy", "SR", xAxis, "µs")
	bySeries := map[string]*report.Series{}
	var order []string
	for _, p := range pts {
		x := float64(p.Tasks)
		if xAxis == "cores" {
			x = float64(p.R.Total())
		}
		t.AddRow(p.Strategy, fmt.Sprintf("%.1f", p.SR), int(x), p.Micros)
		key := fmt.Sprintf("%s SR=%.1f", p.Strategy, p.SR)
		s, ok := bySeries[key]
		if !ok {
			s = &report.Series{Name: key}
			bySeries[key] = s
			order = append(order, key)
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, p.Micros)
	}
	a.emit(t)
	var plot []report.Series
	for _, k := range order {
		plot = append(plot, *bySeries[k])
	}
	if !a.csv {
		report.LogPlot(a.out, "execution time (µs, log) vs "+xAxis, plot, 60, 12)
	}
}

// table2Config is the one Table II configuration of the run: table2, fig5
// and fig6 all honour -real and -scale through it.
func (a *app) table2Config() experiments.Table2Config {
	cfg := experiments.DefaultTable2Config()
	cfg.RunReal = a.real
	cfg.TimeScale = a.scale
	cfg.Campaign = a.campaign
	return cfg
}

// table2Rows plans, simulates and, under -real, runs Table II once per
// app.
func (a *app) table2Rows() ([]experiments.Table2Row, error) {
	if a.t2cache == nil {
		rows, err := experiments.Table2(a.table2Config())
		if err != nil {
			return nil, err
		}
		a.t2cache = rows
	}
	return a.t2cache, nil
}

func (a *app) table2() ([]experiments.Table2Row, error) {
	rows, err := a.table2Rows()
	if err != nil {
		return nil, err
	}
	mode := "simulation only (pass -real for runtime measurements)"
	if a.real {
		mode = fmt.Sprintf("streampu runtime at time scale %.0f×", a.scale)
	}
	fmt.Fprintf(a.out, "Table II — DVB-S2 receiver schedules; %s\n\n", mode)
	t := report.NewTable("Id", "Platform", "R", "Strategy", "Pipeline decomposition",
		"|s|", "b", "l", "Period µs", "Sim FPS", "Real FPS", "Sim Mb/s", "Real Mb/s", "Ratio")
	for _, r := range rows {
		ratio := "-"
		if r.RealMbps > 0 {
			ratio = fmt.Sprintf("%+.0f%%", r.RatioPct)
		}
		t.AddRow(r.ID, r.Platform, r.R.String(), r.Strategy, r.Decomposition,
			r.Stages, r.BUsed, r.LUsed, r.PeriodMicros,
			fmt.Sprintf("%.0f", r.SimFPS), fmt.Sprintf("%.0f", r.RealFPS),
			r.SimMbps, r.RealMbps, ratio)
	}
	a.emit(t)
	return rows, nil
}

func (a *app) table3() error {
	fmt.Fprint(a.out, "Table III — DVB-S2 receiver task latency profiles (µs)\n\n")
	rows := experiments.Table3()
	t := report.NewTable("Id", "Task", "Rep", "Mac B", "Mac L", "X7 B", "X7 L")
	for _, r := range rows {
		rep := "✗"
		if r.Replicable {
			rep = "✓"
		}
		mac := r.Weights["Mac Studio"]
		x7 := r.Weights["X7 Ti"]
		t.AddRow(fmt.Sprintf("τ%d", r.ID), r.Name, rep, mac[0], mac[1], x7[0], x7[1])
	}
	a.emit(t)
	return nil
}

func (a *app) fig5() error {
	rows, err := a.table2()
	if err != nil {
		return err
	}
	fmt.Fprint(a.out, "Fig. 5 — achieved information throughput (Mb/s)\n\n")
	entries := experiments.Fig5(rows)
	t := report.NewTable("Platform", "R", "Strategy", "Mb/s", "bar")
	maxV := 0.0
	for _, e := range entries {
		if e.Mbps > maxV {
			maxV = e.Mbps
		}
	}
	for _, e := range entries {
		bar := ""
		for i := 0.0; i < e.Mbps/maxV*40; i++ {
			bar += "█"
		}
		t.AddRow(e.Platform, e.R.String(), e.Strategy, e.Mbps, bar)
	}
	a.emit(t)
	return nil
}

func (a *app) fig6() error {
	cfg := experiments.DefaultTable1Config()
	cfg.Campaign, cfg.Chains = a.campaign, min(a.chains, 200)
	t1 := experiments.Table1(cfg)
	t2, err := a.table2Rows()
	if err != nil {
		return err
	}
	fmt.Fprint(a.out, "Fig. 6 — strategy characteristics summary\n\n")
	t := report.NewTable("Strategy", "Optimal", "Avg slowdown", "Avg extra cores",
		"Execution time", "Real/best %")
	for _, s := range experiments.Fig6(t1, t2) {
		real := "-"
		if s.RealVsBestPct > 0 {
			real = fmt.Sprintf("%.0f%%", s.RealVsBestPct)
		}
		t.AddRow(s.Strategy, s.Optimal, s.AvgSlowdown, s.AvgExtraCores, s.TimeClass, real)
	}
	a.emit(t)
	return nil
}

// sensitivity runs the extension study quantifying the paper's remark
// that heuristics degrade with more tasks and improve with more
// resources (§VI-B, "additional experiments").
func (a *app) sensitivity() error {
	cfg := experiments.DefaultSensitivityConfig()
	cfg.Campaign, cfg.Chains = a.campaign, min(a.chains, 200)
	fmt.Fprintf(a.out, "Sensitivity extension (%d chains per point, SR=%.1f)\n\n", cfg.Chains, cfg.SR)

	fmt.Fprintln(a.out, "-- heuristic quality vs number of tasks, R=(10B,10L)")
	t := report.NewTable("Strategy", "tasks", "%opt", "avg slowdown")
	for _, p := range experiments.SensitivityTasks(cfg, core.Res(10, 10),
		[]int{10, 20, 40, 80}) {
		t.AddRow(p.Strategy, p.X, fmt.Sprintf("%.1f", p.PctOptimal), p.AvgSlowdown)
	}
	a.emit(t)

	fmt.Fprintln(a.out, "-- heuristic quality vs resources, 20 tasks")
	t2 := report.NewTable("Strategy", "cores", "%opt", "avg slowdown")
	for _, p := range experiments.SensitivityResources(cfg, 20, []core.Resources{
		core.Res(4, 4), core.Res(10, 10), core.Res(20, 20), core.Res(40, 40),
	}) {
		t2.AddRow(p.Strategy, p.X, fmt.Sprintf("%.1f", p.PctOptimal), p.AvgSlowdown)
	}
	a.emit(t2)
	return nil
}

// latency runs the pipeline-depth / end-to-end-latency extension.
func (a *app) latency() error {
	rows, err := experiments.Latency(a.campaign)
	if err != nil {
		return err
	}
	fmt.Fprint(a.out, "Latency extension — pipeline depth and end-to-end latency per strategy\n\n")
	t := report.NewTable("Platform", "R", "Strategy", "stages", "period µs", "latency µs", "latency (periods)")
	for _, r := range rows {
		t.AddRow(r.Platform, r.R.String(), r.Strategy, r.Stages,
			r.PeriodMicros, r.LatencyMicros, r.LatencyPeriods)
	}
	a.emit(t)
	return nil
}

func (a *app) live() error {
	fmt.Fprint(a.out, "Live experiment — schedule and run this repository's Go DVB-S2 receiver\n\n")
	// One 20-frame profile plans every row, so the rows compare; another
	// run of the command draws another profile.
	p := dvbs2.Test()
	chain, _, err := experiments.LiveProfile(p, 20)
	if err != nil {
		return err
	}
	procs, over := runtime.GOMAXPROCS(0), 0
	t := report.NewTable("Strategy", "R", "Schedule", "Workers", "Predicted FPS", "Measured FPS", "BER")
	for _, strat := range []string{experiments.StratHeRAD, experiments.StratFERTAC} {
		for _, r := range []core.Resources{core.Res(2, 2), core.Res(4, 4)} {
			res, err := experiments.LiveRun(p, chain, strat, r, 150)
			if err != nil {
				return err
			}
			// Every replica is one busy worker goroutine.
			workers := 0
			for _, st := range res.Solution.Stages {
				workers += st.Cores
			}
			if workers > procs {
				over++
			}
			t.AddRow(strat, r.String(), res.Solution.String(), workers,
				fmt.Sprintf("%.0f", res.Predicted), fmt.Sprintf("%.0f", res.Measured),
				fmt.Sprintf("%.2e", res.BER))
		}
	}
	a.emit(t)
	if over > 0 {
		fmt.Fprintf(a.out, "Note: %d of the schedules above run more workers than GOMAXPROCS = %d, so their\n"+
			"Measured FPS ranks oversubscription of this host, not the schedules.\n", over, procs)
	}
	return nil
}
