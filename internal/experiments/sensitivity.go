package experiments

import (
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/stats"
)

// Sensitivity study — the paper reports (without data, "for the sake of
// space") that non-optimal strategies perform worse with more tasks to
// schedule and better with more resources. This extension quantifies
// both claims: heuristic quality vs chain length at fixed resources, and
// vs resource count at fixed length.

// SensitivityPoint is one (x, strategy) cell: the fraction of optimal
// periods and the average slowdown over a batch of chains.
type SensitivityPoint struct {
	Strategy    string
	X           int // tasks or total cores, depending on the sweep
	PctOptimal  float64
	AvgSlowdown float64
}

// SensitivityConfig sizes the study.
type SensitivityConfig struct {
	Campaign
	Chains int
	SR     float64
	Seed   int64
}

// DefaultSensitivityConfig returns a laptop-sized configuration.
func DefaultSensitivityConfig() SensitivityConfig {
	return SensitivityConfig{Chains: 100, SR: 0.5, Seed: 20250704}
}

// SensitivityTasks sweeps the chain length at fixed resources.
func SensitivityTasks(cfg SensitivityConfig, r core.Resources, taskCounts []int) []SensitivityPoint {
	var out []SensitivityPoint
	for _, n := range taskCounts {
		out = append(out, sensitivityScenario(cfg, n, r, n)...)
	}
	return out
}

// SensitivityResources sweeps the platform size at fixed chain length.
func SensitivityResources(cfg SensitivityConfig, n int, resources []core.Resources) []SensitivityPoint {
	var out []SensitivityPoint
	for _, r := range resources {
		out = append(out, sensitivityScenario(cfg, n, r, r.Total())...)
	}
	return out
}

func sensitivityScenario(cfg SensitivityConfig, n int, r core.Resources, x int) []SensitivityPoint {
	chains := chaingen.GenerateMany(chaingen.Default(n, cfg.SR), cfg.Seed+int64(n)*13+int64(r.Total()), cfg.Chains)
	names := []string{StratHeRAD}
	for _, name := range HeuristicStrategies {
		if name == StratTwoCAT && n > TwoCATACMaxTasks {
			continue
		}
		names = append(names, name)
	}
	results := cfg.plan(crossRequests(chains, r, names))
	slow := map[string][]float64{}
	stride := len(names)
	for i := range chains {
		opt := results[i*stride].Period // HeRAD leads every chain's block
		for k, name := range names[1:] {
			slow[name] = append(slow[name], results[i*stride+1+k].Period/opt)
		}
	}
	var out []SensitivityPoint
	for _, name := range HeuristicStrategies {
		xs, ok := slow[name]
		if !ok {
			continue
		}
		out = append(out, SensitivityPoint{
			Strategy:    name,
			X:           x,
			PctOptimal:  100 * stats.FractionAtMost(xs, 1),
			AvgSlowdown: stats.Mean(xs),
		})
	}
	return out
}
