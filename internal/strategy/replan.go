package strategy

import (
	"fmt"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/obs/flight"
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

// heradOptions projects the strategy-level knobs onto herad.Options — the
// one place the mapping lives (heradScheduler.Schedule and the replan path
// both use it).
func heradOptions(o Options) herad.Options {
	return herad.Options{Raw: o.Raw, Epsilon: o.Epsilon}
}

// NewHeradPlanner builds an incumbent herad.Planner from strategy-level
// options, for callers that want to seed ReplanBatch before the first
// batch arrives. ReplanBatch also creates one on demand.
func NewHeradPlanner(c *core.Chain, r core.Resources, o Options) (*herad.Planner, error) {
	return herad.NewPlanner(c, r, heradOptions(o))
}

// replanCompatible reports whether req may be served by rebasing p: a
// HeRAD request on the planner's platform whose schedule-shaping options
// (Raw, ε) match the ones baked into the planner's matrix. The
// observability sinks never change the schedule, so they don't gate the
// warm start; Colocate is a post-pass applied per request.
func replanCompatible(p *herad.Planner, req Request) bool {
	po := p.Opts()
	return req.Resources == p.Resources() &&
		req.Options.Raw == po.Raw &&
		normEpsilon(req.Options.Epsilon) == normEpsilon(po.Epsilon)
}

// heradRequest reports whether req is a well-formed request for the
// built-in HeRAD scheduler — the only strategy with an incremental mode.
func heradRequest(req Request) bool {
	if req.Chain == nil || req.Chain.Len() == 0 || req.Scheduler == nil {
		return false
	}
	if _, ok := req.Scheduler.(heradScheduler); !ok {
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
	for i := range reqs {
		req := reqs[i]
		var sp *trace.Span
		if t := req.Options.Trace; t != nil {
			sp = t.Begin("request").Int("index", i)
			if req.Label != "" {
				sp.Str("label", req.Label)
			}
			if req.Scheduler != nil {
				sp.Str("scheduler", req.Scheduler.Name())
			}
		}
		if !heradRequest(req) {
			out[i] = plan(req, sp)
			st.Cold++
			continue
		}
		start := time.Now() // the fill or refill is the request's cost
		if p == nil {
			np, err := NewHeradPlanner(req.Chain, req.Resources, req.Options)
			if err != nil {
				out[i] = plan(req, sp)
				st.Cold++
				continue
			}
			p = np
		} else if !replanCompatible(p, req) {
			out[i] = plan(req, sp)
			st.Cold++
			continue
		} else if err := p.Rebase(req.Chain); err != nil {
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

// replanResult builds the Result of a warm-started request from the
// planner's retained matrix, applying the request's own post-passes
// (merge via the planner's Raw, Colocate via Options.finish) and keeping
// plan's error contract and journal/metrics shape. start is when the
// planner work for this request began, so Elapsed covers the (re)fill as
// well as the extraction.
func replanResult(p *herad.Planner, req Request, sp *trace.Span, start time.Time) Result {
	res := Result{Request: req}
	s := req.Options.finish(req.Chain, p.Solution())
	res.Elapsed = time.Since(start)
	res.Solution = s
	res.Period = s.Period(req.Chain)
	if s.IsEmpty() {
		res.Err = fmt.Errorf("strategy: %s found no schedule for R=%v",
			req.Scheduler.Name(), req.Resources)
	}
	if sp != nil {
		sp.Event("replan").Int("rows_refilled", p.RowsRefilled()).
			Int("rows_total", req.Chain.Len())
		if res.Err != nil {
			sp.Event("result").Str("error", res.Err.Error())
		} else {
			sp.Event("result").F64("period", res.Period).Int("stages", len(res.Solution.Stages))
		}
	}
	if m := req.Options.Metrics.Sub("replan"); m != nil {
		m.Counter("warm_starts").Inc()
		m.Counter("rows_refilled").Add(int64(p.RowsRefilled()))
		m.Counter("rows_total").Add(int64(req.Chain.Len()))
	}
	if fr := req.Options.Flight; fr != nil {
		fr.Record(flight.Event{
			Code:  flight.CodeReplan,
			Stage: -1,
			Aux:   fr.Intern(req.Scheduler.Name()),
			A:     res.Period,
			B:     float64(p.RowsRefilled()),
		})
	}
	return res
}
