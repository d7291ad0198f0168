package experiments

import (
	"math"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/stats"
)

// Table1Resources are the three resource pairs of the simulation study.
var Table1Resources = []core.Resources{
	core.Res(16, 4),
	core.Res(10, 10),
	core.Res(4, 16),
}

// Table1SRs are the evaluated stateless ratios.
var Table1SRs = []float64{0.2, 0.5, 0.8}

// Table1Tasks is the chain length of the simulation study.
const Table1Tasks = 20

// Table1Config parameterizes the simulation campaign. The paper uses
// Chains=1000.
type Table1Config struct {
	Campaign
	Chains int
	Seed   int64
}

// DefaultTable1Config returns the paper's configuration.
func DefaultTable1Config() Table1Config {
	return Table1Config{Chains: 1000, Seed: 20250704}
}

// Table1Cell aggregates one (R, SR, strategy) cell of Table I: the
// percentage of optimal periods, the average/median/maximum slowdown
// ratios versus HeRAD, and the average core usage by type.
type Table1Cell struct {
	R        core.Resources
	SR       float64
	Strategy string

	PctOptimal  float64 // % of chains where the period equals HeRAD's
	AvgSlowdown float64
	MedSlowdown float64
	MaxSlowdown float64
	AvgBigUsed  float64
	AvgLitUsed  float64

	// Slowdowns holds the raw per-chain slowdown ratios (used by Fig. 1).
	Slowdowns []float64
}

// Table1 runs the full simulation campaign and returns one cell per
// (resource pair, SR, strategy) in presentation order.
func Table1(cfg Table1Config) []Table1Cell {
	var out []Table1Cell
	for _, r := range Table1Resources {
		for _, sr := range Table1SRs {
			out = append(out, Table1Scenario(cfg, r, sr)...)
		}
	}
	return out
}

// Table1Scenario runs a single (R, SR) scenario.
func Table1Scenario(cfg Table1Config, r core.Resources, sr float64) []Table1Cell {
	// Chains are deterministic per (seed, SR, tasks) so that every
	// resource pair sees the same workloads for a given SR, like the
	// paper's pre-generated chains.
	seed := cfg.Seed + int64(sr*1000)
	chains := chaingen.GenerateMany(chaingen.Default(Table1Tasks, sr), seed, cfg.Chains)

	results := cfg.plan(crossRequests(chains, r, Strategies))
	periods := map[string][]float64{}
	usedB := map[string][]float64{}
	usedL := map[string][]float64{}
	for _, res := range results {
		name := res.Request.Label
		periods[name] = append(periods[name], res.Period)
		b, l := res.Solution.CoresUsed()
		usedB[name] = append(usedB[name], float64(b))
		usedL[name] = append(usedL[name], float64(l))
	}

	opt := periods[StratHeRAD]
	var out []Table1Cell
	for _, name := range Strategies {
		cell := Table1Cell{R: r, SR: sr, Strategy: name}
		nOpt := 0
		for i, p := range periods[name] {
			slow := p / opt[i]
			if math.IsNaN(slow) {
				slow = 1
			}
			cell.Slowdowns = append(cell.Slowdowns, slow)
			if slow <= 1+1e-9 {
				nOpt++
			}
		}
		cell.PctOptimal = 100 * float64(nOpt) / float64(len(opt))
		cell.AvgSlowdown = stats.Mean(cell.Slowdowns)
		cell.MedSlowdown = stats.Median(cell.Slowdowns)
		cell.MaxSlowdown = stats.Max(cell.Slowdowns)
		cell.AvgBigUsed = stats.Mean(usedB[name])
		cell.AvgLitUsed = stats.Mean(usedL[name])
		out = append(out, cell)
	}
	return out
}
