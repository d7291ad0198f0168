// Package otac implements OTAC (Optimal scheduling for pipelined and
// replicated TAsk Chains), the homogeneous-resource baseline of the paper
// (Orhan et al. 2023). OTAC runs the common binary search (sched.Schedule)
// with a greedy ComputeSolution that packs stages on a single core type.
// It is optimal for homogeneous platforms; the paper evaluates it as
// OTAC (B) (big cores only) and OTAC (L) (little cores only) to show the
// cost of ignoring heterogeneity.
package otac

import (
	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/sched"
)

// Metrics holds OTAC's instrumentation handles. The zero value is the
// disabled sink.
type Metrics struct {
	// ComputeCalls counts ComputeSolution invocations (binary-search
	// probes reaching OTAC's greedy packer).
	ComputeCalls *obs.Counter
	// Stages counts the stages the greedy packer built, including those
	// of probes that were later discarded.
	Stages *obs.Counter
	// Sched carries the shared binary-search/stage-packing series and the
	// decision-journal scope (Sched.Trace): every greedy placement emits
	// a "stage_placed" event, failed probes an "exhausted" event.
	Sched sched.Metrics
}

// MetricsFrom resolves OTAC's series in r (nil r disables).
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		ComputeCalls: r.Counter("otac.compute.calls"),
		Stages:       r.Counter("otac.stages.built"),
		Sched:        sched.MetricsFrom(r),
	}
}

// Schedule computes an OTAC schedule of c over cores homogeneous cores of
// type v. It returns the empty solution when cores ≤ 0.
func Schedule(c *core.Chain, cores int, v core.CoreType) core.Solution {
	if cores <= 0 {
		return core.Solution{}
	}
	return sched.Schedule(c, core.Res(0, 0).With(v, cores), ComputeObs(v, Metrics{}))
}

// ComputeObs returns OTAC's ComputeSolution restricted to core type v,
// reporting into m (the zero Metrics disables), for use with
// sched.ScheduleM. Only the v component of the resources is consumed.
func ComputeObs(v core.CoreType, m Metrics) sched.ComputeSolutionFunc {
	return func(c *core.Chain, r core.Resources, target float64, buf []core.Stage) core.Solution {
		return computeSolution(c, r.Count(v), v, target, m, buf)
	}
}

// computeSolution greedily builds stages left to right with ComputeStage,
// consuming cores of the single type v and appending to stages (the
// search's probe buffer). It returns the empty solution as soon as a stage
// cannot respect the target with the remaining cores.
func computeSolution(c *core.Chain, avail int, v core.CoreType, target float64, m Metrics, stages []core.Stage) core.Solution {
	m.ComputeCalls.Inc()
	for s := 0; s < c.Len(); {
		if avail <= 0 {
			if m.Sched.Trace.Enabled() {
				m.Sched.Trace.Event("exhausted").Int("first_task", s).Str("type", v.String())
			}
			return core.Solution{}
		}
		e, u, ok := sched.FitStage(c, s, avail, v, target, m.Sched)
		if !ok {
			if m.Sched.Trace.Enabled() {
				m.Sched.Trace.Event("exhausted").Int("first_task", s).Str("type", v.String()).
					Int("cores_needed", u).Int("avail", avail)
			}
			return core.Solution{}
		}
		m.Stages.Inc()
		if m.Sched.Trace.Enabled() {
			m.Sched.Trace.Event("stage_placed").Int("first_task", s).Int("end", e).
				Int("cores", u).Str("type", v.String())
		}
		stages = append(stages, core.Stage{Start: s, End: e, Cores: u, Type: v})
		avail -= u
		s = e + 1
	}
	return core.Solution{Stages: stages}
}
