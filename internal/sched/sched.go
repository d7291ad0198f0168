// Package sched implements the scheduling machinery shared by the greedy
// strategies of the paper: the binary-search Schedule procedure (Algo 1),
// the greedy ComputeStage (Algo 2, as ComputeStageM), and the support
// methods MaxPacking, RequiredCores, IsRep and FinalRepTask (Algo 3).
// FERTAC, 2CATAC and OTAC plug their ComputeSolution variants into
// Schedule.
package sched

import (
	"math"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// Metrics is the sched-layer instrumentation sink: nil-safe counter
// handles for the shared machinery's named series. The zero value is
// the disabled sink — every update is a single nil check and no
// allocation — so the instrumented code paths are unconditional.
type Metrics struct {
	// SearchIterations counts binary-search probes (compute invocations
	// by Schedule, Algo 1's loop plus the final upper-bound retry).
	SearchIterations *obs.Counter
	// SearchValid counts the probes that produced a valid schedule.
	SearchValid *obs.Counter
	// SearchFallbacks counts Schedule's robustness-fallback re-searches.
	SearchFallbacks *obs.Counter
	// ComputeStageCalls counts ComputeStage invocations (Algo 2).
	ComputeStageCalls *obs.Counter
	// MaxPackingCalls counts MaxPacking invocations (Algo 3), including
	// the ones ComputeStage issues internally.
	MaxPackingCalls *obs.Counter
	// Trace is the decision-journal scope. The binary search opens one
	// "probe" span per compute invocation, so the decision events a probe
	// triggers (compute_stage, max_packing, plus the strategy packages'
	// own events) nest under it. Nil disables journaling at one branch
	// per emit site.
	Trace *trace.Scope
}

// MetricsFrom resolves the sched series in r (nil r yields the disabled
// zero value). The names are shared by every binary-search strategy so
// scoped registries (strategy layer) produce comparable per-strategy
// series.
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		SearchIterations:  r.Counter("sched.search.iterations"),
		SearchValid:       r.Counter("sched.search.valid"),
		SearchFallbacks:   r.Counter("sched.search.fallbacks"),
		ComputeStageCalls: r.Counter("sched.compute_stage.calls"),
		MaxPackingCalls:   r.Counter("sched.max_packing.calls"),
	}
}

// ComputeSolutionFunc builds a (possibly partial) schedule for the tasks
// starting at index s (0-based) with the given available resources and a
// target period. It returns the empty solution when no valid schedule with
// period ≤ target exists under the strategy's greedy rules.
type ComputeSolutionFunc func(c *core.Chain, s int, r core.Resources, target float64) core.Solution

// Bounds holds the period interval searched by Schedule.
type Bounds struct {
	Min, Max float64
	// Eps is the termination threshold of the binary search; the paper
	// uses 1/(b+l) to account for the fractional periods of replicated
	// stages.
	Eps float64
}

// DefaultBounds computes the paper's period bounds (Algo 1 lines 1–3):
// the lower bound is the maximum of the fully-replicated-everywhere period
// and the largest sequential task weight; the upper bound adds the largest
// task weight. The paper assumes tasks run fastest on big cores; to stay
// correct when one resource type is absent (OTAC usage) the per-task
// weights are taken on the fastest *available* type.
func DefaultBounds(c *core.Chain, r core.Resources) Bounds {
	total := 0.0
	maxSeq := 0.0
	maxW := 0.0
	for i := 0; i < c.Len(); i++ {
		t := c.Task(i)
		w := bestWeight(t, r)
		total += w
		if !t.Replicable && w > maxSeq {
			maxSeq = w
		}
		// The paper's upper-bound increment uses the little-core weight
		// (the largest weight of a task on any available type).
		if ww := worstWeight(t, r); ww > maxW {
			maxW = ww
		}
	}
	min := total / float64(r.Total())
	if maxSeq > min {
		min = maxSeq
	}
	return Bounds{Min: min, Max: min + maxW, Eps: 1 / float64(r.Total())}
}

func bestWeight(t core.Task, r core.Resources) float64 {
	w, any := math.Inf(1), false
	for v := 0; v < r.NumTypes(); v++ {
		if r.Count(core.CoreType(v)) > 0 {
			w, any = math.Min(w, t.W(core.CoreType(v))), true
		}
	}
	if !any {
		// No type has cores; mirror the historical convention of reading
		// the last (slowest-by-assumption) type's weight.
		return t.W(core.CoreType(r.NumTypes() - 1))
	}
	return w
}

func worstWeight(t core.Task, r core.Resources) float64 {
	w, any := math.Inf(-1), false
	for v := 0; v < r.NumTypes(); v++ {
		if r.Count(core.CoreType(v)) > 0 {
			w, any = math.Max(w, t.W(core.CoreType(v))), true
		}
	}
	if !any {
		return t.W(core.CoreType(r.NumTypes() - 1))
	}
	return w
}

// Schedule implements Algo 1: a binary search over target periods that
// repeatedly invokes compute and keeps the best valid schedule found. It
// returns the empty solution when the chain cannot be scheduled at all
// (no resources).
func Schedule(c *core.Chain, r core.Resources, compute ComputeSolutionFunc) core.Solution {
	return ScheduleM(c, r, compute, Metrics{})
}

// ScheduleM is Schedule reporting into m.
func ScheduleM(c *core.Chain, r core.Resources, compute ComputeSolutionFunc, m Metrics) core.Solution {
	if c == nil || c.Len() == 0 || r.Total() <= 0 || !r.NonNegative() {
		return core.Solution{}
	}
	best := scheduleBounds(c, r, DefaultBounds(c, r), compute, m)
	if !best.IsEmpty() {
		return best
	}
	// Robustness fallback: the paper's upper bound is safe for its greedy
	// strategies on its workloads, but a heuristic may fail below it on
	// adversarial inputs. The whole chain on a single core is always
	// feasible, so retry with that period as the upper bound.
	m.SearchFallbacks.Inc()
	fb := math.Inf(1)
	for v := 0; v < r.NumTypes(); v++ {
		if r.Count(core.CoreType(v)) > 0 {
			fb = math.Min(fb, c.TotalW(core.CoreType(v)))
		}
	}
	b := DefaultBounds(c, r)
	b.Max = fb * (1 + b.Eps)
	if m.Trace.Enabled() {
		m.Trace.Event("fallback").F64("max", b.Max)
	}
	return scheduleBounds(c, r, b, compute, m)
}

// scheduleBounds is Algo 1's binary search over the period interval b.
func scheduleBounds(c *core.Chain, r core.Resources, b Bounds, compute ComputeSolutionFunc, m Metrics) core.Solution {
	if m.Trace.Enabled() {
		m.Trace.Event("bounds").F64("min", b.Min).F64("max", b.Max).F64("eps", b.Eps)
	}
	var best core.Solution
	pmin, pmax := b.Min, b.Max
	for pmax-pmin >= b.Eps {
		pmid := (pmax + pmin) / 2
		m.SearchIterations.Inc()
		probe, exit := m.Trace.Enter("probe")
		probe.F64("target", pmid)
		s := compute(c, 0, r, pmid)
		if s.IsValid(c, r, pmid) {
			m.SearchValid.Inc()
			best = s
			pmax = s.Period(c) // can only decrease the target from here
			probe.Bool("valid", true).F64("period", pmax)
		} else {
			pmin = pmid // can only increase the target
			probe.Bool("valid", false)
		}
		exit()
	}
	if best.IsEmpty() {
		// The search may converge without probing the upper bound itself;
		// give the strategy one last chance exactly at Max.
		m.SearchIterations.Inc()
		probe, exit := m.Trace.Enter("probe")
		probe.F64("target", b.Max).Bool("last_chance", true)
		s := compute(c, 0, r, b.Max)
		if s.IsValid(c, r, b.Max) {
			m.SearchValid.Inc()
			best = s
			probe.Bool("valid", true).F64("period", best.Period(c))
		} else {
			probe.Bool("valid", false)
		}
		exit()
	}
	return best
}

// MaxPacking (Algo 3) returns the largest task index e ≥ s (0-based,
// inclusive) such that the stage [s, e] executed by cores cores of type v
// weighs at most target. Following the paper it returns at least s, even
// when the single task s alone exceeds the target.
func MaxPacking(c *core.Chain, s, cores int, v core.CoreType, target float64) int {
	return MaxPackingM(c, s, cores, v, target, Metrics{})
}

// MaxPackingM is MaxPacking reporting into m.
//
// Stage weights are non-decreasing in the interval end (prefix sums of
// non-negative weights; a replicable→sequential flip only removes the
// divisor), so the boundary is found by binary search over the chain's
// prefix sums in O(log n) probes. The former linear scan — which also
// walked the whole tail when task s alone exceeded the target, because its
// break path required one prior success — survives as the differential
// oracle in sched_test.go.
func MaxPackingM(c *core.Chain, s, cores int, v core.CoreType, target float64, m Metrics) int {
	m.MaxPackingCalls.Inc()
	e := s
	if c.Weight(s, s, cores, v) <= target {
		// Invariant: Weight(s, lo, …) ≤ target; answer in [lo, hi].
		lo, hi := s, c.Len()-1
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if c.Weight(s, mid, cores, v) <= target {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		e = lo
	}
	if m.Trace.Enabled() {
		m.Trace.Event("max_packing").Int("first_task", s).Int("cores", cores).
			Str("type", v.String()).F64("target", target).Int("end", e)
	}
	return e
}

// RequiredCores (Algo 3) returns ⌈w([s,e],1,v)/target⌉: the number of
// cores of type v needed for the stage [s, e] to meet the target period if
// it were fully replicable. The result is clamped to at least 1.
func RequiredCores(c *core.Chain, s, e int, v core.CoreType, target float64) int {
	u := int(math.Ceil(c.SumW(s, e, v) / target))
	if u < 1 {
		u = 1
	}
	return u
}

// ComputeStageM implements Algo 2: starting at task s with at most avail
// cores of type v, it greedily chooses where the stage ends and how many
// cores it needs to respect the target period. Replicable stages are
// extended as far as possible, shrunk when the cores run out, and trimmed
// by one core when the leftover tasks (plus the following sequential task)
// fit in a single core of the next stage. It reports into m; the zero
// Metrics disables.
func ComputeStageM(c *core.Chain, s, avail int, v core.CoreType, target float64, m Metrics) (end, used int) {
	m.ComputeStageCalls.Inc()
	n := c.Len()
	e := MaxPackingM(c, s, 1, v, target, m)
	u := RequiredCores(c, s, e, v, target)
	if e != n-1 && c.IsRep(s, e) {
		e = c.FinalRepTask(s, e)
		u = RequiredCores(c, s, e, v, target)
		if u > avail {
			// Not enough cores for the whole replicable run: keep as many
			// tasks as avail cores can absorb.
			e = MaxPackingM(c, s, avail, v, target, m)
			u = avail
		} else if e != n-1 && u >= 2 {
			// The run is followed by a sequential task. Check whether
			// moving this stage's tail to the next stage saves one core.
			// The trimmed stage must itself still respect the target:
			// MaxPacking floors its result at s even when task s alone
			// exceeds the target with u-1 cores, in which case trimming
			// would silently produce an over-period stage.
			f := MaxPackingM(c, s, u-1, v, target, m)
			if c.Weight(s, f, u-1, v) <= target &&
				RequiredCores(c, f+1, e+1, v, target) == 1 {
				e, u = f, u-1
			}
		}
	}
	if m.Trace.Enabled() {
		m.Trace.Event("compute_stage").Int("first_task", s).Int("avail", avail).
			Str("type", v.String()).F64("target", target).Int("end", e).Int("cores", u)
	}
	return e, u
}
