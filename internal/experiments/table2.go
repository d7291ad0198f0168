package experiments

import (
	"fmt"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/obs"
	"ampsched/internal/platform"
	"ampsched/internal/stats"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
)

// Table2Config parameterizes the real-world DVB-S2 experiment.
type Table2Config struct {
	// Campaign plans the schedules; simulation and runtime rows stay
	// serial (the runtime measures wall-clock time). Its Metrics also
	// collect, for RunReal rows, each run's streampu sampler series (stage
	// occupancy over the run, per-stage latency) under
	// "<row id>.streampu.*".
	Campaign
	// RunReal executes each schedule on the streampu runtime (wall-clock
	// time!); when false only the discrete-event prediction is produced.
	RunReal bool
	// TimeScale stretches modeled latencies for the runtime runs
	// (defaults to 10; see streampu.Options.TimeScale).
	TimeScale float64
	// MinFrames and TargetWallSeconds size each runtime run: the frame
	// count targets TargetWallSeconds of wall time, floored at MinFrames.
	MinFrames     int
	TargetWallSec float64
	// Platforms restricts the experiment (defaults to both).
	Platforms []*platform.Platform
}

// DefaultTable2Config mirrors the paper's campaign at a laptop-friendly
// duration (the paper runs each schedule 10×1 minute on real silicon).
func DefaultTable2Config() Table2Config {
	return Table2Config{RunReal: true, TimeScale: 10, MinFrames: 40, TargetWallSec: 1.5}
}

// Table2Row is one line of Table II: a strategy's schedule on one
// platform configuration, its predicted (simulated) throughput, and the
// throughput achieved by the streampu runtime.
type Table2Row struct {
	ID       string // S1..S20, following the paper's numbering
	Platform string
	R        core.Resources
	Strategy string

	Decomposition string
	Stages        int
	BUsed, LUsed  int

	PeriodMicros float64 // expected period (µs) from the schedule
	SimFPS       float64 // discrete-event simulated frames per second
	SimMbps      float64
	RealFPS      float64 // streampu-runtime measured FPS (0 when !RunReal)
	RealMbps     float64
	DiffMbps     float64 // SimMbps − RealMbps
	RatioPct     float64 // 100·Diff/RealMbps, the paper's "Ratio" column
}

// Table2 computes every row of Table II (and the data behind Fig. 5).
func Table2(cfg Table2Config) ([]Table2Row, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 10
	}
	if cfg.MinFrames <= 0 {
		cfg.MinFrames = 40
	}
	if cfg.TargetWallSec <= 0 {
		cfg.TargetWallSec = 1.5
	}
	plats := cfg.Platforms
	if plats == nil {
		plats = platform.All()
	}
	type job struct {
		p  *platform.Platform
		c  *core.Chain
		r  core.Resources
		st string
		id string
	}
	var jobs []job
	var reqs []strategy.Request
	id := 0
	for _, p := range plats {
		c := p.Chain()
		for _, r := range p.Configs() {
			for _, name := range Strategies {
				id++
				jobs = append(jobs, job{p: p, c: c, r: r, st: name, id: fmt.Sprintf("S%d", id)})
				reqs = append(reqs, strategy.Request{
					Chain: c, Resources: r, Scheduler: mustScheduler(name), Label: name,
				})
			}
		}
	}
	scheds := cfg.plan(reqs)
	var rows []Table2Row
	for i, j := range jobs {
		row, err := table2Row(cfg, j.p, j.c, j.r, j.st, j.id, scheds[i].Solution)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func table2Row(cfg Table2Config, p *platform.Platform, c *core.Chain, r core.Resources, strat, id string, sol core.Solution) (Table2Row, error) {
	if sol.IsEmpty() {
		return Table2Row{}, fmt.Errorf("experiments: %s produced no schedule for %s %v", strat, p.Name, r)
	}
	b, l := sol.CoresUsed()
	row := Table2Row{
		ID: id, Platform: p.Name, R: r, Strategy: strat,
		Decomposition: sol.String(),
		Stages:        len(sol.Stages), BUsed: b, LUsed: l,
		PeriodMicros: sol.Period(c),
	}

	sim, err := desim.Simulate(c, sol, desim.Config{Frames: 3000, QueueCap: 2})
	if err != nil {
		return Table2Row{}, fmt.Errorf("experiments: desim %s/%s: %w", p.Name, strat, err)
	}
	row.SimFPS = sim.Throughput(p.Interframe)
	row.SimMbps = platform.MbPerSecond(row.SimFPS)

	if cfg.RunReal {
		frames := int(cfg.TargetWallSec * 1e6 / (row.PeriodMicros * cfg.TimeScale))
		if frames < cfg.MinFrames {
			frames = cfg.MinFrames
		}
		popt := streampu.Options{
			TimeScale: cfg.TimeScale,
			QueueCap:  2,
		}
		if cfg.Metrics != nil {
			popt.Sampler = streampu.NewSampler(cfg.Metrics.Sub(obs.Slug(id)))
		}
		pipe, err := streampu.New(streampu.TimedChain(c), sol, popt)
		if err != nil {
			return Table2Row{}, fmt.Errorf("experiments: pipeline %s/%s: %w", p.Name, strat, err)
		}
		st, err := pipe.Run(frames, nil)
		if err != nil {
			return Table2Row{}, fmt.Errorf("experiments: run %s/%s: %w", p.Name, strat, err)
		}
		popt.Sampler.Sample(time.Now()) // the run is one window
		row.RealFPS = st.Throughput(p.Interframe)
		row.RealMbps = platform.MbPerSecond(row.RealFPS)
		row.DiffMbps = row.SimMbps - row.RealMbps
		if row.RealMbps > 0 {
			row.RatioPct = 100 * row.DiffMbps / row.RealMbps
		}
	}
	return row, nil
}

// Fig5Entry is one bar of Fig. 5: a strategy's achieved information
// throughput on one platform configuration.
type Fig5Entry struct {
	Platform string
	R        core.Resources
	Strategy string
	Mbps     float64 // measured when available, else simulated
}

// Fig5 reshapes Table II rows into the achieved-throughput series of
// Fig. 5.
func Fig5(rows []Table2Row) []Fig5Entry {
	out := make([]Fig5Entry, len(rows))
	for i, r := range rows {
		mbps := r.RealMbps
		if mbps == 0 {
			mbps = r.SimMbps
		}
		out[i] = Fig5Entry{Platform: r.Platform, R: r.R, Strategy: r.Strategy, Mbps: mbps}
	}
	return out
}

// Fig6Summary is the qualitative roll-up of Fig. 6 for one strategy.
type Fig6Summary struct {
	Strategy string
	// AvgSlowdown is the mean slowdown vs HeRAD across all Table I cells.
	AvgSlowdown float64
	// AvgExtraCores is the mean number of extra cores vs HeRAD.
	AvgExtraCores float64
	// TimeClass characterizes the execution-time growth.
	TimeClass string
	// RealVsBestPct is the mean achieved throughput as a percentage of
	// the best theoretical throughput (HeRAD's expected period), from the
	// DVB-S2 experiment.
	RealVsBestPct float64
	// Optimal reports whether the strategy is provably optimal.
	Optimal bool
}

// Fig6 derives the summary table from the other experiments' outputs.
func Fig6(t1 []Table1Cell, t2 []Table2Row) []Fig6Summary {
	classes := map[string]string{
		StratHeRAD:  "O(n²·b·l·(b+l)) — ms to s",
		StratTwoCAT: "O(2ⁿ·log(w(b+l))) — µs to s, ≤60 tasks",
		StratFERTAC: "O(n·log(w(b+l))+n²) — tens of µs",
		StratOTACB:  "O(n·log(w·b)+n²) — tens of µs",
		StratOTACL:  "O(n·log(w·l)+n²) — tens of µs",
	}
	// Best theoretical Mb/s per (platform, R) = HeRAD's simulated Mb/s.
	best := map[string]float64{}
	for _, r := range t2 {
		if r.Strategy == StratHeRAD {
			best[r.Platform+r.R.String()] = r.SimMbps
		}
	}
	heradUse := map[string][2]float64{}
	for _, c := range t1 {
		if c.Strategy == StratHeRAD {
			heradUse[c.R.String()+fmt.Sprint(c.SR)] = [2]float64{c.AvgBigUsed, c.AvgLitUsed}
		}
	}
	var out []Fig6Summary
	for _, name := range Strategies {
		s := Fig6Summary{Strategy: name, Optimal: name == StratHeRAD, TimeClass: classes[name]}
		var slows, extras, ratios []float64
		for _, c := range t1 {
			if c.Strategy != name {
				continue
			}
			slows = append(slows, c.AvgSlowdown)
			h := heradUse[c.R.String()+fmt.Sprint(c.SR)]
			extras = append(extras, (c.AvgBigUsed-h[0])+(c.AvgLitUsed-h[1]))
		}
		for _, r := range t2 {
			if r.Strategy != name || r.RealMbps == 0 {
				continue
			}
			if b := best[r.Platform+r.R.String()]; b > 0 {
				ratios = append(ratios, 100*r.RealMbps/b)
			}
		}
		s.AvgSlowdown = stats.Mean(slows)
		s.AvgExtraCores = stats.Mean(extras)
		s.RealVsBestPct = stats.Mean(ratios)
		out = append(out, s)
	}
	return out
}
