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
func ComputeObs(m Metrics) sched.ComputeSolutionFunc {
	return func(c *core.Chain, r core.Resources, target float64, buf []core.Stage) core.Solution {
		return computeSolution(c, r, target, m, buf)
	}
}

// computeSolution implements Algo 4: for the stage starting at each task s
// it first tries little cores, then big cores, then goes on with the
// remaining tasks and resources. Algo 4 recurses on the remainder; the
// recursion is a tail call, so the stages are built left to right,
// appended to stages (the search's probe buffer). It returns the empty
// solution when neither core type yields a valid stage for some task.
func computeSolution(c *core.Chain, r core.Resources, target float64, m Metrics, stages []core.Stage) core.Solution {
	for s := 0; ; {
		m.ComputeCalls.Inc()
		v := core.Little
		e, u, ok := sched.FitStage(c, s, r.Count(v), v, target, m.Sched)
		fallback := !ok
		if fallback {
			m.BigFallbacks.Inc()
			v = core.Big
			if e, u, ok = sched.FitStage(c, s, r.Count(v), v, target, m.Sched); !ok {
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
