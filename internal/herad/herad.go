// Package herad implements HeRAD (Heterogeneous Resource Allocation using
// Dynamic programming, Algos 7–11 of the paper): the optimal solution to
// the period-minimization problem for partially-replicable task chains,
// with the secondary objective of using as many little cores as necessary
// (and otherwise as few cores as possible). The paper states it for two
// types of resources; this package solves it for any k core types with one
// DP fill (fill.go), of which the paper's (big, little) platform is the
// k=2 instance.
//
// The DP computes P*(j, r⃗) — the best period for the first j tasks with up
// to r⃗_v cores of each type v — via the recurrence of Eq. 4, resolving
// period ties with CompareCells (Algo 10). Complexity is
// O(n²·Π(C_v+1)·ΣC_v) time and O(n·Π(C_v+1)) space; two published
// optimizations are implemented (single-core inner loop for sequential
// intervals, plus the stage-merge post-pass), along with a period-dominance
// pruning of the reverse stage loop, seven cuts inside it — the fifth jumps
// over the splits that hold no candidate, the sixth leaves out the cells
// above FERTAC's period on two-type platforms, the seventh the cells whose
// leftover cores cannot carry the rest of the chain within that period —
// and a warm incumbent, none of which can move a cell that can lie on the
// optimal path (fill.go).
package herad

import (
	"math"

	"ampsched/internal/core"
	"ampsched/internal/fertac"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// Metrics holds HeRAD's instrumentation handles. The zero value is the
// disabled sink.
type Metrics struct {
	// DPCells counts the (j, r⃗) cells the Eq. 4 recursion actually
	// evaluates (Algo 9): not the cells the bound or the suffix bound
	// skips unevaluated.
	DPCells *obs.Counter
	// DPCandidates counts candidate (split point, core count, type)
	// solutions evaluated inside those cells: the ones the cuts of the
	// split loop cannot rule out unseen, the warm split's included.
	DPCandidates *obs.Counter
	// DPPruned counts the reverse stage loops of cells within the bound
	// cut short by the period-dominance pruning.
	DPPruned *obs.Counter
	// MergedStages counts the stages removed by the replicable-stage
	// merge post-pass.
	MergedStages *obs.Counter
	// Trace is the decision-journal scope: the DP fill runs under a
	// "dp_pass" span (carrying the fill's bound) with one "dp_cell"
	// event per recomputed cell within the bound (the committed split
	// point, core type and period), "dp_prune" events for their dominance
	// cut-offs, and a "merge_pass" event for the post-pass.
	Trace *trace.Scope
}

// MetricsFrom resolves HeRAD's series in r (nil r disables).
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		DPCells:      r.Counter("herad.dp.cells"),
		DPCandidates: r.Counter("herad.dp.candidates"),
		DPPruned:     r.Counter("herad.dp.pruned"),
		MergedStages: r.Counter("herad.merge.removed_stages"),
	}
}

// Options carries the scheduling knobs of the DP. The zero value is the
// default configuration: disabled instrumentation.
type Options struct {
	// Workers is accepted and ignored: the fill is serial. The field
	// outlives the wavefront pool it used to size only because bench/ still
	// sets it (see ROADMAP.md).
	Workers int
	// ForceGeneral is accepted and ignored: there is one fill. Kept for
	// bench/ like Workers.
	ForceGeneral bool
	// Epsilon is accepted and ignored: the fill is exact. Kept for bench/.
	Epsilon float64
	// Metrics holds the instrumentation sinks (zero value disables).
	Metrics Metrics
}

// Schedule computes the optimal schedule of c on the resources r,
// including the replicable-stage merge post-pass. It returns the empty
// solution when no resources are available.
func Schedule(c *core.Chain, r core.Resources) core.Solution {
	return ScheduleOpts(c, r, Options{})
}

// ScheduleOpts computes the optimal schedule of c on r under o.
func ScheduleOpts(c *core.Chain, r core.Resources, o Options) core.Solution {
	return finishSolution(c, scheduleRaw(c, r, o), o)
}

// finishSolution applies the replicable-stage merge post-pass to an
// extracted solution, reporting into o's Metrics (shared by ScheduleOpts
// and Planner).
func finishSolution(c *core.Chain, s core.Solution, o Options) core.Solution {
	om := o.Metrics
	merged := s.MergeReplicable(c)
	removed := len(s.Stages) - len(merged.Stages)
	if removed > 0 {
		om.MergedStages.Add(int64(removed))
	}
	if om.Trace.Enabled() && !s.IsEmpty() {
		om.Trace.Event("merge_pass").Int("removed_stages", removed).
			Int("stages", len(merged.Stages))
	}
	return merged
}

// scheduleRaw is ScheduleOpts without the merge post-pass: the schedule
// exactly as extracted from the DP matrix.
func scheduleRaw(c *core.Chain, r core.Resources, o Options) core.Solution {
	if c == nil || c.Len() == 0 || r.Total() <= 0 || !r.NonNegative() {
		return core.Solution{}
	}
	if c.NumTypes() != r.NumTypes() {
		return core.Solution{} // chain and platform disagree on the type table
	}
	m := newMatrix(c.Len(), r)
	m.fill(c, bound(c, r), o.Metrics)
	return m.extract(c.Len())
}

// bound returns the period of FERTAC's schedule of c on a two-type r, which
// the optimum can only match or beat, or +Inf on any other type count or
// when FERTAC finds no schedule. The fill computes stage weights exactly as
// Solution.Period does, so its final cell is at most this bound bit for
// bit, and the cells above it are left out (rowFill.bound), as are the
// cells whose leftover cores cannot carry the rest of the chain within it
// (rowFill.live).
func bound(c *core.Chain, r core.Resources) float64 {
	if r.NumTypes() != 2 {
		return math.Inf(1)
	}
	return fertac.Schedule(c, r).Period(c)
}

// Period returns the optimal period of c on r without materializing the
// schedule (it still fills the DP matrix).
func Period(c *core.Chain, r core.Resources) float64 {
	return scheduleRaw(c, r, Options{}).Period(c)
}
