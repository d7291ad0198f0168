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

// builtin is one row of the strategy table and the Scheduler it names.
// Adding a strategy is one row: its name, the core-type count it needs and
// a run closure; Schedule supplies everything the rows share.
type builtin struct {
	name    string
	aliases []string // already normalized: Get compares them to normalize(name)
	hidden  bool
	// types is the exact number of core types the strategy handles (the
	// paper's greedy strategies are defined for two); 0 accepts any.
	// PlanBatch refuses a mismatch through CheckTypes before Schedule runs.
	types int
	// run resolves the package's metrics in m and journals under sc (both
	// nil when disabled), then calls the package's instrumented entry.
	run func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution
}

func (b *builtin) Name() string { return b.name }

// Schedule runs the row's strategy with the steps every row shares: the
// type guard for direct calls, the "strategy" journal span, the
// schedule.ns timer and the schedule.calls/schedule.empty counters, the
// finish post-passes and the solution summary. Nil sinks are the off
// switch: with o.Metrics and o.Trace nil each of those steps is one nil
// check, so a row has a single path whether or not anything observes it.
func (b *builtin) Schedule(c *core.Chain, r core.Resources, o Options) core.Solution {
	if b.types != 0 && (r.NumTypes() != b.types || c != nil && c.NumTypes() != b.types) {
		return core.Solution{}
	}
	m, sp := MetricsScope(b, o.Metrics), o.Trace.Begin("strategy").Str("name", b.name)
	stop := m.Timer("schedule.ns").Start()
	s := o.finish(c, b.run(c, r, m, trace.NewScope(sp)))
	stop()
	m.Counter("schedule.calls").Inc()
	empty := m.Counter("schedule.empty") // registered even while zero
	if s.IsEmpty() {
		empty.Inc()
	}
	traceSolution(sp, c, s)
	return s
}

// heradRow is the optimal dynamic program (Algos 7–11), the one strategy
// ReplanBatch can warm-start.
var heradRow = &builtin{name: "HeRAD",
	run: func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
		hm := herad.MetricsFrom(m)
		hm.Trace = sc
		return herad.ScheduleOpts(c, r, herad.Options{Metrics: hm})
	}}

// registry is the strategy table, in the paper's presentation order so All
// drives "-strategy all" sweeps and the experiment tables unchanged. The
// brute-force reference is hidden: resolvable by name, excluded from
// sweeps (it is exponential: tests and tiny chains only).
// TestRegistryNamesUnique keeps the names and aliases unambiguous.
var registry = []*builtin{
	heradRow,
	{name: "2CATAC", aliases: []string{"twocatac"}, types: 2, // Algos 5–6
		run: func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
			tm := twocatac.MetricsFrom(m)
			tm.Sched.Trace = sc
			return sched.ScheduleM(c, r, twocatac.ComputeObs(false, tm), tm.Sched)
		}},
	{name: "FERTAC", types: 2, // Algo 4
		run: func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
			fm := fertac.MetricsFrom(m)
			fm.Sched.Trace = sc
			return sched.ScheduleM(c, r, fertac.ComputeObs(fm), fm.Sched)
		}},
	{name: "OTAC (B)", aliases: []string{"otac-b", "otacb"}, types: 2,
		run: func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
			return otacOn(core.Big, c, r, m, sc)
		}},
	{name: "OTAC (L)", aliases: []string{"otac-l", "otacl"}, types: 2,
		run: func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
			return otacOn(core.Little, c, r, m, sc)
		}},
	{name: "Brute", aliases: []string{"brute-force", "exhaustive"}, hidden: true,
		run: func(c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
			bm := brute.MetricsFrom(m)
			bm.Trace = sc
			return brute.Schedule(c, r, bm)
		}},
}

// otacOn runs the homogeneous OTAC baseline on the v component of the
// resources only, ignoring the other type. Each OTAC row calls it from its
// own closure: a helper returning one closure per variant would allocate
// on every schedule.
func otacOn(v core.CoreType, c *core.Chain, r core.Resources, m *obs.Registry, sc *trace.Scope) core.Solution {
	om := otac.MetricsFrom(m)
	om.Sched.Trace = sc
	return sched.ScheduleM(c, r.Only(v), otac.ComputeObs(v, om), om.Sched)
}
