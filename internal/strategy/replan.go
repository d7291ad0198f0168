package strategy

import (
	"time"

	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/trace"
)

// ReplanStats summarizes how ReplanBatch resolved one batch: how many
// requests rode the incremental planner versus falling back to the
// from-scratch plan path, and how much DP row work the warm starts saved
// (RowsRefilled out of the RowsTotal a from-scratch fill would have
// recomputed).
type ReplanStats struct {
	// WarmStarts counts the requests served by refilling the incumbent
	// planner (including the request that created it, which refills every
	// row — its RowsRefilled equals its chain length).
	WarmStarts int
	// Cold counts the requests routed through the regular plan path:
	// non-HeRAD schedulers, malformed requests, or a resources/options
	// mismatch with the incumbent planner.
	Cold int
	// RowsRefilled and RowsTotal accumulate, over the warm starts, the DP
	// rows actually recomputed versus the rows a from-scratch fill would
	// recompute. Their ratio is the incremental win of the batch.
	RowsRefilled int
	RowsTotal    int
}

// NewHeradPlanner builds an incumbent herad.Planner, for callers that want
// to seed ReplanBatch before the first batch arrives. ReplanBatch also
// creates one on demand. No strategy-level option changes HeRAD's fill,
// so o does not reach the planner.
func NewHeradPlanner(c *core.Chain, r core.Resources, o Options) (*herad.Planner, error) {
	return herad.NewPlanner(c, r, herad.Options{})
}

// heradRequest reports whether req is a well-formed request for the
// built-in HeRAD scheduler — the only strategy with an incremental mode.
func heradRequest(req Request) bool {
	if req.Chain == nil || req.Chain.Len() == 0 || req.Scheduler != heradRow {
		return false
	}
	return CheckTypes(req.Scheduler, req.Chain, req.Resources) == nil
}

// ReplanBatch is the re-planning entry point of the batch layer: it
// resolves reqs in order, serving each eligible HeRAD request by rebasing
// the incumbent planner onto the request's chain — refilling only the DP
// rows past the longest common task prefix with the previously planned
// chain (herad.Planner.Rebase) — and falling back to the regular
// from-scratch plan path for everything else. It returns the results in
// request order, the planner to pass to the next batch (created on the
// first eligible request when incumbent is nil), and the batch's stats.
//
// The schedules are bit-identical to PlanBatch's: a warm start replays
// the exact fill the from-scratch DP would run on the unchanged prefix
// rows (property-tested in replan_test.go). Only the wall clock differs —
// that, and the journal: a warm-started request journals a "replan" event
// with its row counts in place of the solver's full decision trail, and
// the planner's own fill events (built with the planner, not the request)
// are not re-scoped per request. Requests are resolved serially — the
// planner is a mutable incumbent, and edit streams are order-dependent by
// nature — and the solution cache is not consulted: an edit stream
// changes the chain fingerprint every step, which is exactly the workload
// the cache cannot help.
func ReplanBatch(incumbent *herad.Planner, reqs []Request) ([]Result, *herad.Planner, ReplanStats) {
	out := make([]Result, len(reqs))
	p := incumbent
	var st ReplanStats
	for i, req := range reqs {
		sp := requestSpan(req, i)
		start := time.Now() // the fill or refill is the request's cost
		var warm bool
		if p, warm = warmStart(p, req); !warm {
			out[i] = plan(req, sp)
			st.Cold++
			continue
		}
		out[i] = replanResult(p, req, sp, start)
		st.WarmStarts++
		st.RowsRefilled += p.RowsRefilled()
		st.RowsTotal += req.Chain.Len()
	}
	return out, p, st
}

// warmStart returns the incumbent planner after trying to serve req with
// it: p rebased onto req's chain, or a new planner when p is nil. warm is
// false when req must take the cold plan path instead — a non-HeRAD or
// malformed request, a platform other than p's, or a planner that cannot
// be built or rebased — and p then stays the incumbent. No option gates
// the warm start: the observability sinks never change the schedule, and
// Colocate is a post-pass applied per request.
func warmStart(p *herad.Planner, req Request) (_ *herad.Planner, warm bool) {
	switch {
	case !heradRequest(req):
		return p, false
	case p == nil:
		np, err := NewHeradPlanner(req.Chain, req.Resources, req.Options)
		return np, err == nil
	case req.Resources != p.Resources():
		return p, false
	default:
		return p, p.Rebase(req.Chain) == nil
	}
}

// replanResult builds the Result of a warm-started request from the
// planner's retained matrix, applying the request's own post-passes
// (HeRAD's merge inside the planner, Colocate via Options.finish). The
// journal gains a "replan" event with the row counts before the shared
// result tail (conclude); the replan counters take the place of
// PlanBatch's planbatch series. start is when the planner work for this
// request began, so Elapsed covers the (re)fill as well as the extraction.
func replanResult(p *herad.Planner, req Request, sp *trace.Span, start time.Time) Result {
	res := Result{Request: req, Solution: req.Options.finish(req.Chain, p.Solution())}
	res.Elapsed = time.Since(start)
	if sp != nil {
		sp.Event("replan").Int("rows_refilled", p.RowsRefilled()).
			Int("rows_total", req.Chain.Len())
	}
	res = conclude(res, sp)
	if m := req.Options.Metrics.Sub("replan"); m != nil {
		m.Counter("warm_starts").Inc()
		m.Counter("rows_refilled").Add(int64(p.RowsRefilled()))
		m.Counter("rows_total").Add(int64(req.Chain.Len()))
	}
	return res
}
