// Package twocatac implements 2CATAC (Two-Choice Allocation for TAsk
// Chains, Algos 5–6 of the paper): a greedy heuristic that, for every
// stage, tries both core types and keeps the solution that best exchanges
// big cores for little ones (or, failing that, uses fewer cores). Its
// worst-case complexity is O(2^n · log(w_max·(b+l))); the paper limits it
// to chains of about 60 tasks. The recursion is kept paper-verbatim, with
// no memoization, because Figs. 3–4 time exactly that recursion; a memoized
// oracle that returns the same schedules lives in memo_test.go.
package twocatac

import (
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/sched"
)

// Metrics holds 2CATAC's instrumentation handles. The zero value is the
// disabled sink.
type Metrics struct {
	// Nodes counts recursion-tree nodes (ComputeSolution invocations,
	// Algo 5): the exponential quantity Figs. 3–4 time.
	Nodes *obs.Counter
	// Sched carries the shared binary-search/stage-packing series and the
	// decision-journal scope (Sched.Trace): the recursion emits one
	// "node" event per branch point, nested under the current
	// binary-search probe span.
	Sched sched.Metrics
}

// MetricsFrom resolves 2CATAC's series in r (nil r disables).
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		Nodes: r.Counter("twocatac.recursion.nodes"),
		Sched: sched.MetricsFrom(r),
	}
}

// Schedule computes a 2CATAC schedule of c on the resources r using the
// paper-verbatim exponential recursion.
func Schedule(c *core.Chain, r core.Resources) core.Solution {
	return sched.Schedule(c, r, ComputeObs(false, Metrics{}))
}

// ComputeObs returns Algo 5's ComputeSolution reporting into m (the zero
// Metrics disables), for use with sched.ScheduleM. memo is accepted and
// ignored (the recursion is never memoized); the parameter stays only
// because bench/ still passes it (see ROADMAP.md).
func ComputeObs(memo bool, m Metrics) sched.ComputeSolutionFunc {
	return func(ch *core.Chain, s int, res core.Resources, target float64) core.Solution {
		return computeSolution(ch, s, res, target, m)
	}
}

// computeSolution implements Algo 5: it builds the stage starting at task
// s with both core types, recurses on the remainder for each, and picks
// the better of the two complete solutions with ChooseBestSolution.
func computeSolution(c *core.Chain, s int, r core.Resources, target float64, m Metrics) core.Solution {
	m.Nodes.Inc()
	var sols [2]core.Solution
	for _, v := range []core.CoreType{core.Big, core.Little} {
		e, u := sched.ComputeStageM(c, s, r.Count(v), v, target, m.Sched)
		switch {
		case u < 1 || u > r.Count(v) || c.Weight(s, e, u, v) > target:
			// no valid stage with this type of cores
		case e == c.Len()-1:
			sols[v] = core.Solution{Stages: []core.Stage{{Start: s, End: e, Cores: u, Type: v}}}
		default:
			rest := computeSolution(c, e+1, r.Consume(v, u), target, m)
			if rest.IsValid(c, r.Consume(v, u), target) {
				sols[v] = rest.Prepend(core.Stage{Start: s, End: e, Cores: u, Type: v})
			}
		}
	}
	best := ChooseBestSolution(c, sols[core.Big], sols[core.Little], r, target)
	if m.Sched.Trace.Enabled() {
		ev := m.Sched.Trace.Event("node").Int("first_task", s).
			Int("big", r.Count(core.Big)).Int("little", r.Count(core.Little)).
			Bool("big_valid", sols[core.Big].IsValid(c, r, target)).
			Bool("little_valid", sols[core.Little].IsValid(c, r, target))
		if !best.IsEmpty() {
			ev.Str("chosen", best.Stages[0].Type.String())
		}
	}
	return best
}

// ChooseBestSolution implements Algo 6: between two candidate solutions it
// returns the only valid one, or — when both are valid — the one that
// better exchanges big cores for little ones, falling back to the one that
// uses fewer cores in total.
func ChooseBestSolution(c *core.Chain, sb, sl core.Solution, r core.Resources, target float64) core.Solution {
	validB := sb.IsValid(c, r, target)
	validL := sl.IsValid(c, r, target)
	switch {
	case validB && validL:
		bB, lB := sb.CoresUsed() // usage of the solution whose first stage is Big
		bL, lL := sl.CoresUsed()
		switch {
		case lB > lL && bB < bL:
			return sb // S_B makes better usage of little cores
		case lB < lL && bB > bL:
			return sl // S_L makes better usage of little cores
		case lB+bB < lL+bL:
			return sb // S_B uses fewer cores
		default:
			return sl // S_L uses fewer cores
		}
	case validB:
		return sb
	case validL:
		return sl
	default:
		return core.Solution{}
	}
}
