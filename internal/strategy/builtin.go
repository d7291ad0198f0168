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

// twoTypes reports whether chain and resources both declare exactly two
// core types — the defensive guard of the TypeConstrained strategies for
// direct Scheduler.Schedule calls (PlanBatch rejects mismatches with a
// descriptive error before the strategy ever runs; see CheckTypes).
func twoTypes(c *core.Chain, r core.Resources) bool {
	return r.NumTypes() == 2 && (c == nil || c.NumTypes() == 2)
}

// observe runs one strategy's scheduling pass with the tail every adapter
// shares: the schedule.ns timer and the schedule.calls/schedule.empty
// counters into m, the finish post-passes, and the solution summary into
// sp. Nil sinks are the off switch: with m and sp nil each of those steps is
// one nil check, so an adapter has a single path whether or not anything
// observes it.
func (o Options) observe(c *core.Chain, m *obs.Registry, sp *trace.Span, run func() core.Solution) core.Solution {
	stop := m.Timer("schedule.ns").Start()
	s := o.finish(c, run())
	stop()
	m.Counter("schedule.calls").Inc()
	empty := m.Counter("schedule.empty") // registered even while zero
	if s.IsEmpty() {
		empty.Inc()
	}
	traceSolution(sp, c, s)
	return s
}

// heradScheduler adapts the optimal dynamic program (Algos 7–11).
type heradScheduler struct{}

func (heradScheduler) Name() string { return "HeRAD" }

func (h heradScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	m, sp := o.scope(h.Name()), o.span(h.Name())
	return o.observe(c, m, sp, func() core.Solution {
		hm := herad.MetricsFrom(m)
		hm.Trace = trace.NewScope(sp)
		return herad.ScheduleOpts(c, r, herad.Options{Metrics: hm})
	})
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
	m, sp := o.scope(t.Name()), o.span(t.Name())
	return o.observe(c, m, sp, func() core.Solution {
		tm := twocatac.MetricsFrom(m)
		tm.Sched.Trace = trace.NewScope(sp)
		return sched.ScheduleM(c, r, twocatac.ComputeObs(false, tm), tm.Sched)
	})
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
	m, sp := o.scope(f.Name()), o.span(f.Name())
	return o.observe(c, m, sp, func() core.Solution {
		fm := fertac.MetricsFrom(m)
		fm.Sched.Trace = trace.NewScope(sp)
		return sched.ScheduleM(c, r, fertac.ComputeObs(fm), fm.Sched)
	})
}

// otacScheduler adapts the homogeneous OTAC baseline: it schedules on the
// v component of the resources only, ignoring the other type.
type otacScheduler struct{ v core.CoreType }

// Name is a constant per variant: a concatenated name would allocate on
// every Schedule call, sinks or not.
func (s otacScheduler) Name() string {
	if s.v == core.Big {
		return "OTAC (B)"
	}
	return "OTAC (L)"
}

// SupportedTypes declares the single-type baseline's fixed platform shape
// (it reads one component of a two-type platform).
func (otacScheduler) SupportedTypes() int { return 2 }

func (s otacScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	if !twoTypes(c, r) {
		return core.Solution{}
	}
	m, sp := o.scope(s.Name()), o.span(s.Name())
	return o.observe(c, m, sp, func() core.Solution {
		om := otac.MetricsFrom(m)
		om.Sched.Trace = trace.NewScope(sp)
		return sched.ScheduleM(c, r.Only(s.v), otac.ComputeObs(s.v, om), om.Sched)
	})
}

// bruteScheduler adapts the exhaustive reference solver. Exponential — the
// table exposes it for tests and tiny chains, not for sweeps.
type bruteScheduler struct{}

func (bruteScheduler) Name() string { return "Brute" }

func (b bruteScheduler) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	m, sp := o.scope(b.Name()), o.span(b.Name())
	return o.observe(c, m, sp, func() core.Solution {
		bm := brute.MetricsFrom(m)
		bm.Trace = trace.NewScope(sp)
		return brute.ScheduleObs(c, r, bm)
	})
}
