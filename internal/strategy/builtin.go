package strategy

import (
	"ampsched/internal/brute"
	"ampsched/internal/core"
	"ampsched/internal/fertac"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/otac"
	"ampsched/internal/sched"
	"ampsched/internal/trace"
	"ampsched/internal/twocatac"
)

// The built-in strategies, registered in the paper's presentation order so
// All() drives "-strategy all" sweeps and the experiment tables unchanged.
// The brute-force reference is hidden: resolvable by name, excluded from
// sweeps.
func init() {
	Register(heradScheduler{})
	Register(twocatacScheduler{}, "twocatac")
	Register(fertacScheduler{})
	Register(otacScheduler{v: core.Big}, "otac-b", "otacb")
	Register(otacScheduler{v: core.Little}, "otac-l", "otacl")
	RegisterHidden(bruteScheduler{}, "brute-force", "exhaustive")
}

// twoTypes reports whether chain and resources both declare exactly two
// core types — the defensive guard of the TypeConstrained strategies for
// direct Scheduler.Schedule calls (PlanBatch rejects mismatches with a
// descriptive error before the strategy ever runs; see CheckTypes).
func twoTypes(c *core.Chain, r core.Resources) bool {
	return r.NumTypes() == 2 && (c == nil || c.NumTypes() == 2)
}

// observe wraps a strategy's instrumented scheduling path with the
// common per-strategy series: schedule.ns (wall clock), schedule.calls
// and schedule.empty. It is nil-safe on m (journal-only runs pass a nil
// registry) — the fully disabled path never leaves the plain branch of
// each Schedule method.
func observe(m *obs.Registry, run func() core.Solution) core.Solution {
	stop := m.Timer("schedule.ns").Start()
	s := run()
	stop()
	m.Counter("schedule.calls").Inc()
	empty := m.Counter("schedule.empty") // registered even while zero
	if s.IsEmpty() {
		empty.Inc()
	}
	return s
}

// heradScheduler adapts the optimal dynamic program (Algos 7–11).
type heradScheduler struct{}

func (heradScheduler) Name() string { return "HeRAD" }

func (h heradScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	m := o.scope(h.Name())
	sp := o.span(h.Name())
	ho := heradOptions(o)
	if m == nil && sp == nil {
		return o.finish(c, herad.ScheduleOpts(c, r, ho))
	}
	s := observe(m, func() core.Solution {
		hm := herad.MetricsFrom(m)
		hm.Trace = trace.NewScope(sp)
		ho.Metrics = hm
		return o.finish(c, herad.ScheduleOpts(c, r, ho))
	})
	traceSolution(sp, c, s)
	return s
}

// twocatacScheduler adapts 2CATAC (Algos 5–6).
type twocatacScheduler struct{}

func (twocatacScheduler) Name() string { return "2CATAC" }

// SupportedTypes declares the two-choice recursion's fixed platform shape.
func (twocatacScheduler) SupportedTypes() int { return 2 }

func (t twocatacScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	if !twoTypes(c, r) {
		return core.Solution{}
	}
	m := o.scope(t.Name())
	sp := o.span(t.Name())
	if m == nil && sp == nil {
		return o.finish(c, sched.Schedule(c, r, twocatac.ComputeSolution))
	}
	s := observe(m, func() core.Solution {
		tm := twocatac.MetricsFrom(m)
		tm.Sched.Trace = trace.NewScope(sp)
		return o.finish(c, sched.ScheduleM(c, r, twocatac.ComputeObs(false, tm), tm.Sched))
	})
	traceSolution(sp, c, s)
	return s
}

// fertacScheduler adapts FERTAC (Algo 4).
type fertacScheduler struct{}

func (fertacScheduler) Name() string { return "FERTAC" }

// SupportedTypes declares the little-first greedy's fixed platform shape.
func (fertacScheduler) SupportedTypes() int { return 2 }

func (f fertacScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	if !twoTypes(c, r) {
		return core.Solution{}
	}
	m := o.scope(f.Name())
	sp := o.span(f.Name())
	if m == nil && sp == nil {
		return o.finish(c, sched.Schedule(c, r, fertac.ComputeSolution))
	}
	s := observe(m, func() core.Solution {
		fm := fertac.MetricsFrom(m)
		fm.Sched.Trace = trace.NewScope(sp)
		return o.finish(c, sched.ScheduleM(c, r, fertac.ComputeObs(fm), fm.Sched))
	})
	traceSolution(sp, c, s)
	return s
}

// otacScheduler adapts the homogeneous OTAC baseline: it schedules on the
// v component of the resources only, ignoring the other type.
type otacScheduler struct{ v core.CoreType }

func (s otacScheduler) Name() string { return "OTAC (" + s.v.String() + ")" }

// SupportedTypes declares the single-type baseline's fixed platform shape
// (it reads one component of a two-type platform).
func (otacScheduler) SupportedTypes() int { return 2 }

func (s otacScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	if !twoTypes(c, r) {
		return core.Solution{}
	}
	rr := r.Only(s.v)
	m := o.scope(s.Name())
	sp := o.span(s.Name())
	if m == nil && sp == nil {
		return o.finish(c, sched.Schedule(c, rr, otac.Compute(s.v)))
	}
	sol := observe(m, func() core.Solution {
		om := otac.MetricsFrom(m)
		om.Sched.Trace = trace.NewScope(sp)
		return o.finish(c, sched.ScheduleM(c, rr, otac.ComputeObs(s.v, om), om.Sched))
	})
	traceSolution(sp, c, sol)
	return sol
}

// bruteScheduler adapts the exhaustive reference solver. Exponential — the
// registry exposes it for tests and tiny chains, not for sweeps.
type bruteScheduler struct{}

func (bruteScheduler) Name() string { return "Brute" }

func (b bruteScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	m := o.scope(b.Name())
	sp := o.span(b.Name())
	if m == nil && sp == nil {
		return o.finish(c, brute.Schedule(c, r))
	}
	s := observe(m, func() core.Solution {
		bm := brute.MetricsFrom(m)
		bm.Trace = trace.NewScope(sp)
		return o.finish(c, brute.ScheduleObs(c, r, bm))
	})
	traceSolution(sp, c, s)
	return s
}
