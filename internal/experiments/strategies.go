// Package experiments implements the paper's evaluation campaign (§VI):
// the synthetic simulation study (Table I, Figs. 1–4) and the real-world
// DVB-S2 experiment (Tables II–III, Fig. 5), plus the qualitative summary
// (Fig. 6). Each experiment is a pure function from parameters to
// structured results; cmd/experiments renders them and bench_test.go
// exposes one benchmark per table/figure.
//
// Strategy dispatch goes through the internal/strategy registry, and the
// schedule-heavy campaigns fan their (chain, strategy) requests across
// strategy.PlanBatch's worker pool — every strategy is deterministic, so
// the tables and figures are byte-identical to a serial run.
package experiments

import (
	"fmt"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/strategy"
)

// Strategy names, in the paper's presentation order. These are the
// canonical registry names; strategy.Parse also accepts the documented
// aliases (2catac, otac-b, …) case-insensitively.
const (
	StratHeRAD  = "HeRAD"
	StratTwoCAT = "2CATAC"
	StratFERTAC = "FERTAC"
	StratOTACB  = "OTAC (B)"
	StratOTACL  = "OTAC (L)"
)

// Strategies lists every evaluated scheduling strategy in order.
var Strategies = []string{StratHeRAD, StratTwoCAT, StratFERTAC, StratOTACB, StratOTACL}

// HeuristicStrategies lists the strategies compared against HeRAD.
var HeuristicStrategies = []string{StratTwoCAT, StratFERTAC, StratOTACB, StratOTACL}

// TwoCATACMaxTasks is the longest chain 2CATAC is run on: the paper stops
// it at 60 tasks because of its exponential growth.
const TwoCATACMaxTasks = 60

// Campaign is the planning context every campaign shares. None of its
// fields changes a result: every strategy is deterministic.
type Campaign struct {
	// Workers bounds the strategy.PlanBatch pool; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, collects the per-strategy and PlanBatch
	// series (strategy.Options.Metrics).
	Metrics *obs.Registry
	// Cache, when non-nil, serves a request an earlier batch solved —
	// e.g. when Fig. 1/2 or the Fig. 5/6 roll-ups revisit Tables I and II
	// (strategy.Options.Cache).
	Cache *strategy.Cache
}

// plan stamps the campaign's options on every request and plans the batch.
func (c Campaign) plan(reqs []strategy.Request) []strategy.Result {
	for i := range reqs {
		reqs[i].Options = strategy.Options{Metrics: c.Metrics, Cache: c.Cache}
	}
	return strategy.PlanBatch(reqs, c.Workers)
}

// Run dispatches to the named scheduling strategy through the registry.
// It panics on unknown names: the experiment drivers only pass the Strat*
// constants, so a miss is a programming error.
func Run(name string, c *core.Chain, r core.Resources) core.Solution {
	return mustScheduler(name).Schedule(c, r, strategy.Options{})
}

func mustScheduler(name string) strategy.Scheduler {
	s, err := strategy.Parse(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return s
}

// crossRequests builds the (chain × strategy) request matrix used by the
// batched campaigns: requests are ordered chain-major, matching the
// serial loops they replace.
func crossRequests(chains []*core.Chain, r core.Resources, names []string) []strategy.Request {
	scheds := make([]strategy.Scheduler, len(names))
	for i, name := range names {
		scheds[i] = mustScheduler(name)
	}
	reqs := make([]strategy.Request, 0, len(chains)*len(names))
	for _, c := range chains {
		for i, s := range scheds {
			reqs = append(reqs, strategy.Request{
				Chain: c, Resources: r, Scheduler: s, Label: names[i],
			})
		}
	}
	return reqs
}
