package experiments

import (
	"fmt"

	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/platform"
	"ampsched/internal/strategy"
)

// Latency extension — the paper's Fig. 6 credits 2CATAC with "shorter
// pipelines" and flags pipeline length as a future optimization target:
// every extra stage adds a period's worth of end-to-end latency. This
// experiment quantifies it: for each Table II configuration and strategy
// it reports the pipeline depth and the simulated end-to-end frame
// latency next to the period.

// LatencyRow is one (configuration, strategy) result.
type LatencyRow struct {
	Platform     string
	R            core.Resources
	Strategy     string
	Stages       int
	PeriodMicros float64
	// LatencyMicros is the steady-state end-to-end frame latency from
	// the discrete-event simulation (QueueCap 2, like the runtime).
	LatencyMicros float64
	// LatencyPeriods is the latency expressed in periods (≈ occupied
	// pipeline depth including buffering).
	LatencyPeriods float64
}

// Latency runs the study over the paper's four platform configurations,
// planning through the campaign's pool; the discrete-event simulations
// stay serial (they are the dominant cost but deterministic either way).
func Latency(cmp Campaign) ([]LatencyRow, error) {
	type job struct {
		plat *platform.Platform
		r    core.Resources
		name string
	}
	var jobs []job
	var reqs []strategy.Request
	for _, p := range platform.All() {
		c := p.Chain()
		for _, r := range p.Configs() {
			for _, name := range Strategies {
				jobs = append(jobs, job{plat: p, r: r, name: name})
				reqs = append(reqs, strategy.Request{
					Chain: c, Resources: r, Scheduler: mustScheduler(name), Label: name,
				})
			}
		}
	}
	results := cmp.plan(reqs)
	var rows []LatencyRow
	for i, j := range jobs {
		sol := results[i].Solution
		if sol.IsEmpty() {
			return nil, fmt.Errorf("experiments: %s empty on %s %v", j.name, j.plat.Name, j.r)
		}
		res, err := desim.Simulate(reqs[i].Chain, sol, desim.Config{Frames: 2000, QueueCap: 2})
		if err != nil {
			return nil, err
		}
		rows = append(rows, LatencyRow{
			Platform: j.plat.Name, R: j.r, Strategy: j.name,
			Stages:       len(sol.Stages),
			PeriodMicros: res.Period, LatencyMicros: res.Latency,
			LatencyPeriods: res.Latency / res.Period,
		})
	}
	return rows, nil
}
