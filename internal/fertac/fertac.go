// Package fertac implements FERTAC (First Efficient Resources for TAsk
// Chains, Algo 4 of the paper): a greedy heuristic that builds every stage
// with little cores first and falls back to big cores only when the target
// period cannot be respected. Complexity O(n·log(w_max·(b+l)) + n²).
package fertac

import (
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/sched"
)

// Metrics holds FERTAC's instrumentation handles. The zero value is the
// disabled sink.
type Metrics struct {
	// ComputeCalls counts ComputeSolution invocations (one per stage
	// built, Algo 4's recursion depth).
	ComputeCalls *obs.Counter
	// BigFallbacks counts the stages where little cores failed and the
	// big-core fallback was taken.
	BigFallbacks *obs.Counter
	// Sched carries the shared binary-search/stage-packing series and the
	// decision-journal scope (Sched.Trace): every committed stage emits a
	// "stage_placed" event recording the little-first/big-fallback choice.
	Sched sched.Metrics
}

// MetricsFrom resolves FERTAC's series in r (nil r disables).
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		ComputeCalls: r.Counter("fertac.compute.calls"),
		BigFallbacks: r.Counter("fertac.compute.big_fallbacks"),
		Sched:        sched.MetricsFrom(r),
	}
}

// Schedule computes a FERTAC schedule of c on the resources r.
func Schedule(c *core.Chain, r core.Resources) core.Solution {
	return sched.Schedule(c, r, ComputeObs(Metrics{}))
}

// ComputeObs returns Algo 4's ComputeSolution reporting into m (the zero
// Metrics disables), for use with sched.ScheduleM.
//
// The function builds its solutions in one stage buffer of two halves,
// allocated on its first call: each call writes the half that does not
// hold the last non-empty solution it returned. That solution is the one
// the search keeps — a non-empty solution only ever holds stages that meet
// the target within the cores left, so sched's IsValid never rejects it
// and every one becomes the search's best — and a failed probe writes
// over nothing the search reads. A returned solution is overwritten by
// the first call after a later non-empty one, so a function serves one
// ScheduleM call: Schedule and the strategy table make one per plan.
func ComputeObs(m Metrics) sched.ComputeSolutionFunc {
	var buf []core.Stage
	kept := 1 // the half of buf holding the last non-empty solution returned
	return func(c *core.Chain, s int, r core.Resources, target float64) core.Solution {
		// Every stage takes at least one task and one core.
		if need := min(c.Len()-s, r.Total()); 2*need > len(buf) {
			buf = make([]core.Stage, 2*need)
		}
		h, next := len(buf)/2, 1-kept
		sol := computeSolution(c, s, r, target, m, buf[next*h:next*h:(next+1)*h])
		if !sol.IsEmpty() {
			kept = next
		}
		return sol
	}
}

// computeSolution implements Algo 4: for the stage starting at task s it
// first tries little cores, then big cores, then goes on with the remaining
// tasks and resources. Algo 4 recurses on the remainder; the recursion is a
// tail call, so the stages are built left to right, appended to stages (an
// empty slice whose capacity is the caller's buffer). It returns the empty
// solution when neither core type yields a valid stage for some task.
func computeSolution(c *core.Chain, s int, r core.Resources, target float64, m Metrics, stages []core.Stage) core.Solution {
	for {
		m.ComputeCalls.Inc()
		e, u := sched.ComputeStageM(c, s, r.Count(core.Little), core.Little, target, m.Sched)
		v := core.Little
		fallback := false
		if !stageValid(c, s, e, u, r, v, target) {
			m.BigFallbacks.Inc()
			fallback = true
			e, u = sched.ComputeStageM(c, s, r.Count(core.Big), core.Big, target, m.Sched)
			v = core.Big
			if !stageValid(c, s, e, u, r, v, target) {
				if m.Sched.Trace.Enabled() {
					m.Sched.Trace.Event("no_stage").Int("first_task", s).
						Int("big", r.Count(core.Big)).Int("little", r.Count(core.Little))
				}
				return core.Solution{} // no valid stage with either core type
			}
		}
		if m.Sched.Trace.Enabled() {
			m.Sched.Trace.Event("stage_placed").Int("first_task", s).Int("end", e).
				Int("cores", u).Str("type", v.String()).Bool("big_fallback", fallback)
		}
		stages = append(stages, core.Stage{Start: s, End: e, Cores: u, Type: v})
		if e == c.Len()-1 {
			return core.Solution{Stages: stages}
		}
		s, r = e+1, r.Consume(v, u)
	}
}

// stageValid is the paper's IsValid applied to a single candidate stage:
// the stage must meet the target period and fit in the available cores of
// its type.
func stageValid(c *core.Chain, s, e, u int, r core.Resources, v core.CoreType, target float64) bool {
	return u >= 1 && u <= r.Count(v) && c.Weight(s, e, u, v) <= target
}
