// Package twocatac implements 2CATAC (Two-Choice Allocation for TAsk
// Chains, Algos 5–6 of the paper): a greedy heuristic that, for every
// stage, tries both core types and keeps the solution that best exchanges
// big cores for little ones (or, failing that, uses fewer cores). Its
// worst-case complexity is O(2^n · log(w_max·(b+l))); the paper limits it
// to chains of about 60 tasks. The recursion is kept paper-verbatim, with
// no memoization, because Figs. 3–4 time exactly that recursion; a memoized
// oracle that returns the same schedules lives in memo_test.go. Only the
// cost of a node is ours: the branches of one binary-search probe are built
// as a stack in the search's stage buffer, and a branch is valid by
// construction, so no node allocates or re-validates.
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
	return func(c *core.Chain, r core.Resources, target float64, buf []core.Stage) core.Solution {
		p := probe{c: c, target: target, m: m, path: buf}
		if !p.solve(0, r.Count(core.Big), r.Count(core.Little)).Valid {
			return core.Solution{Stages: p.path[:0]} // hands back a grown buffer
		}
		return core.Solution{Stages: p.path}
	}
}

// Branch is a candidate solution as Algo 6 compares it: whether it is
// valid, and the big and little cores it uses.
type Branch struct {
	Valid       bool
	Big, Little int
}

// probe is the state of one ComputeSolution call. path holds the stages
// of the branch being built from the chain's first task, used as a stack:
// a node appends its stage and its child appends the rest after it.
type probe struct {
	c      *core.Chain
	target float64
	m      Metrics
	path   []core.Stage
}

// solve implements Algo 5 for the tasks from s on with big and little
// cores left: it builds the stage starting at task s with both core types,
// recurses on the remainder for each, and keeps the better branch by
// ChooseBestSolution. The kept branch's stages end p.path on return; if
// neither branch is valid, p.path is as solve found it.
//
// A branch is valid exactly when it exists: its first stage fits the cores
// left and meets the target, and its rest, valid by induction, fits what
// the stage leaves.
func (p *probe) solve(s, big, little int) Branch {
	p.m.Nodes.Inc()
	base := len(p.path)
	sb := p.branch(s, big, little, core.Big)
	from := len(p.path) // S_L's stages follow S_B's
	sl := p.branch(s, big, little, core.Little)
	keep, ok := ChooseBestSolution(sb, sl)
	if p.m.Sched.Trace.Enabled() {
		ev := p.m.Sched.Trace.Event("node").Int("first_task", s).
			Int("big", big).Int("little", little).
			Bool("big_valid", sb.Valid).Bool("little_valid", sl.Valid)
		if ok {
			ev.Str("chosen", keep.String())
		}
	}
	switch {
	case !ok:
		return Branch{}
	case keep == core.Big:
		p.path = p.path[:from] // drop S_L
		return sb
	case sb.Valid: // S_L's stages go over S_B's
		p.path = p.path[:base+copy(p.path[base:], p.path[from:])]
	}
	return sl
}

// branch appends the branch whose first stage starts at task s on cores of
// type v, and returns it; a branch that is not valid appends nothing.
func (p *probe) branch(s, big, little int, v core.CoreType) Branch {
	avail := big
	if v == core.Little {
		avail = little
	}
	e, u, ok := sched.FitStage(p.c, s, avail, v, p.target, p.m.Sched)
	if !ok {
		return Branch{} // no valid stage with this type of cores
	}
	at := len(p.path)
	p.path = append(p.path, core.Stage{Start: s, End: e, Cores: u, Type: v})
	b := Branch{Valid: true}
	if e < p.c.Len()-1 {
		if v == core.Big {
			b = p.solve(e+1, big-u, little)
		} else {
			b = p.solve(e+1, big, little-u)
		}
		if !b.Valid {
			p.path = p.path[:at] // a failed branch leaves nothing
			return Branch{}
		}
	}
	if v == core.Big {
		b.Big += u
	} else {
		b.Little += u
	}
	return b
}

// ChooseBestSolution implements Algo 6: between the candidates S_B (first
// stage on big cores) and S_L it keeps the only valid one, or — when both
// are valid — the one that better exchanges big cores for little ones,
// falling back to the one that uses fewer cores in total. It returns the
// first-stage type of the kept candidate; ok is false when neither is
// valid.
func ChooseBestSolution(sb, sl Branch) (keep core.CoreType, ok bool) {
	switch {
	case sb.Valid && sl.Valid:
		switch {
		case sb.Little > sl.Little && sb.Big < sl.Big:
			return core.Big, true // S_B makes better usage of little cores
		case sb.Little < sl.Little && sb.Big > sl.Big:
			return core.Little, true // S_L makes better usage of little cores
		case sb.Little+sb.Big < sl.Little+sl.Big:
			return core.Big, true // S_B uses fewer cores
		default:
			return core.Little, true // S_L uses fewer cores
		}
	case sb.Valid:
		return core.Big, true
	case sl.Valid:
		return core.Little, true
	default:
		return core.Big, false
	}
}
