package experiments

import (
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/stats"
	"ampsched/internal/strategy"
)

// Fig1Series is one cumulative-distribution line of Fig. 1: the CDF of a
// strategy's slowdown ratios (vs HeRAD) for one (R, SR) scenario.
type Fig1Series struct {
	R        core.Resources
	SR       float64
	Strategy string
	CDF      []stats.CDFPoint
}

// Fig1 derives the cumulative slowdown distributions from Table I's raw
// slowdowns (the paper's Fig. 1a spans all resource pairs and SRs; Fig. 1b
// is the R=(10,10) row over the full slowdown range).
func Fig1(cells []Table1Cell) []Fig1Series {
	var out []Fig1Series
	for _, c := range cells {
		if c.Strategy == StratHeRAD {
			continue // the reference line is identically 1
		}
		out = append(out, Fig1Series{R: c.R, SR: c.SR, Strategy: c.Strategy,
			CDF: stats.CDF(c.Slowdowns)})
	}
	return out
}

// Fig2Result holds the two heatmaps of Fig. 2: distributions of
// (Δbig, Δlittle) = FERTAC usage − HeRAD usage for R=(10,10), SR=0.5,
// over all chains and over the chains where FERTAC reached the optimal
// period.
type Fig2Result struct {
	R   core.Resources
	SR  float64
	All *stats.Hist2D // every chain
	Opt *stats.Hist2D // only chains where FERTAC achieved the minimal period
}

// Fig2 runs the FERTAC-vs-HeRAD core-usage study.
func Fig2(cfg Table1Config) Fig2Result {
	r := core.Res(10, 10)
	sr := 0.5
	res := Fig2Result{R: r, SR: sr, All: stats.NewHist2D(), Opt: stats.NewHist2D()}
	chains := chaingen.GenerateMany(chaingen.Default(Table1Tasks, sr), cfg.Seed+int64(sr*1000), cfg.Chains)
	results := cfg.plan(crossRequests(chains, r, []string{StratHeRAD, StratFERTAC}))
	for i := range chains {
		h, f := results[2*i], results[2*i+1]
		hb, hl := h.Solution.CoresUsed()
		fb, fl := f.Solution.CoresUsed()
		db, dl := fb-hb, fl-hl
		res.All.Add(db, dl)
		if f.Period <= h.Period*(1+1e-9) {
			res.Opt.Add(db, dl)
		}
	}
	return res
}

// ExtraCoresAtMost returns the fraction of samples in h where FERTAC used
// at most k extra cores in total (counting only positive deltas, as the
// paper's "at most 1 or 2 extra cores" statistic).
func ExtraCoresAtMost(h *stats.Hist2D, k int) float64 {
	return h.FractionWhere(func(db, dl int) bool {
		extra := 0
		if db > 0 {
			extra += db
		}
		if dl > 0 {
			extra += dl
		}
		return extra <= k
	})
}

// TimingPoint is one averaged strategy-execution-time measurement of
// Figs. 3 and 4.
type TimingPoint struct {
	Strategy string
	Tasks    int
	R        core.Resources
	SR       float64
	Micros   float64 // mean execution time in µs
	Runs     int
}

// TimingConfig parameterizes the execution-time profiling. The paper uses
// Chains=50 per point.
type TimingConfig struct {
	Chains int
	Seed   int64
}

// DefaultTimingConfig returns the paper's profiling configuration.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{Chains: 50, Seed: 20250704}
}

// Timing measures strategy execution times over every (SR, tasks,
// resources) point: Fig. 3 sweeps the paper's 20·i tasks at fixed
// resources, Fig. 4 the (20·i, 20·i) resource pairs at fixed task counts.
// 2CATAC stops at TwoCATACMaxTasks.
func Timing(cfg TimingConfig, taskCounts []int, resources []core.Resources, srs []float64) []TimingPoint {
	var out []TimingPoint
	for _, sr := range srs {
		for _, n := range taskCounts {
			for _, r := range resources {
				for _, name := range Strategies {
					if name == StratTwoCAT && n > TwoCATACMaxTasks {
						continue
					}
					out = append(out, timeStrategy(cfg, name, n, r, sr))
				}
			}
		}
	}
	return out
}

// timeStrategy measures one timing point. It runs serially on purpose:
// the figure reports per-call strategy execution time, which concurrent
// planning would contaminate with scheduler contention.
func timeStrategy(cfg TimingConfig, name string, n int, r core.Resources, sr float64) TimingPoint {
	chains := chaingen.GenerateMany(chaingen.Default(n, sr), cfg.Seed+int64(n)*7+int64(sr*1000), cfg.Chains)
	sched := mustScheduler(name)
	start := time.Now()
	for _, c := range chains {
		sched.Schedule(c, r, strategy.Options{})
	}
	elapsed := time.Since(start)
	return TimingPoint{
		Strategy: name, Tasks: n, R: r, SR: sr,
		Micros: float64(elapsed.Microseconds()) / float64(len(chains)),
		Runs:   len(chains),
	}
}
