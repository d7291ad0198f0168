package herad

import (
	"fmt"
	"math"

	"ampsched/internal/core"
)

// Planner is the incremental HeRAD engine: it retains the filled DP
// matrix of its current chain and, on a chain edit, refills only the rows
// an edit can affect. Row j of the matrix covers the first j tasks, so it
// depends exclusively on tasks 0..j-1 and on rows < j — an edit at task
// index i (0-based) therefore invalidates rows ≥ i+1 and provably leaves
// every prefix row untouched. Invalidated rows are recomputed by the same
// fillRows the from-scratch fill uses, which overwrites every cell of a
// row it fills, so an edited Planner's schedule is bit-identical to
// scheduling the edited chain from scratch (planner_test.go drives random
// edit sequences against that oracle). Its fill has no bound (+Inf): its
// rows outlive chain edits, and an edit can raise the period a bound would
// cap them at.
//
// A Planner carries one chain, one resource vector and one Options value
// for its whole life; edits change only the chain. It is not safe for
// concurrent use.
type Planner struct {
	c *core.Chain
	r core.Resources
	o Options
	m *matrix

	lastRefilled int // rows recomputed by the most recent fill or edit
}

// NewPlanner fills the full DP matrix for c on r under o and returns the
// incumbent Planner. Unlike Schedule — which answers unschedulable inputs
// with the empty solution — an unusable chain/resource pairing is an
// error here, because a Planner is a handle edits will be applied to.
func NewPlanner(c *core.Chain, r core.Resources, o Options) (*Planner, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("herad: planner needs a non-empty chain")
	}
	if r.Total() <= 0 || !r.NonNegative() {
		return nil, fmt.Errorf("herad: planner needs positive resources, got R=%s", r)
	}
	if c.NumTypes() != r.NumTypes() {
		return nil, fmt.Errorf("herad: chain declares %d core types, resources %d",
			c.NumTypes(), r.NumTypes())
	}
	m := newMatrix(c.Len(), r)
	m.fill(c, math.Inf(1), o.Metrics)
	return &Planner{c: c, r: r, o: o, m: m, lastRefilled: c.Len()}, nil
}

// Chain returns the planner's current chain.
func (p *Planner) Chain() *core.Chain { return p.c }

// Resources returns the platform the planner was built for.
func (p *Planner) Resources() core.Resources { return p.r }

// RowsRefilled reports how many matrix rows the most recent operation
// recomputed: the chain length after NewPlanner or Append, less for the
// other edits. It is the planner's work meter — the incremental win over
// a from-scratch fill is (1 - RowsRefilled/Len) of the row work.
func (p *Planner) RowsRefilled() int { return p.lastRefilled }

// Solution returns the schedule of the planner's current chain, applying
// the replicable-stage merge post-pass — exactly
// ScheduleOpts(Chain(), Resources(), o) with the planner's Options o,
// without the fill.
func (p *Planner) Solution() core.Solution {
	return finishSolution(p.c, p.raw(), p.o)
}

// Period returns the current optimal period without running the merge
// post-pass (merging never changes the period).
func (p *Planner) Period() float64 {
	return p.raw().Period(p.c)
}

func (p *Planner) raw() core.Solution {
	return p.m.extract(p.c.Len())
}

// Append adds t to the end of the chain. Only the single new row is
// filled: every existing row covers an unchanged prefix.
func (p *Planner) Append(t core.Task) error {
	tasks := append(p.c.Tasks(), t)
	return p.apply(tasks, len(tasks))
}

// Remove deletes the task at index i (0-based), refilling rows i+1 and
// up. Removing the last remaining task is an error — a Planner always
// holds a schedulable chain.
func (p *Planner) Remove(i int) error {
	if i < 0 || i >= p.c.Len() {
		return fmt.Errorf("herad: remove index %d out of range [0, %d)", i, p.c.Len())
	}
	if p.c.Len() == 1 {
		return fmt.Errorf("herad: cannot remove the only task of the chain")
	}
	tasks := p.c.Tasks()
	tasks = append(tasks[:i], tasks[i+1:]...)
	return p.apply(tasks, i+1)
}

// Reweigh replaces the task at index i (0-based) with t, refilling rows
// i+1 and up.
func (p *Planner) Reweigh(i int, t core.Task) error {
	if i < 0 || i >= p.c.Len() {
		return fmt.Errorf("herad: reweigh index %d out of range [0, %d)", i, p.c.Len())
	}
	tasks := p.c.Tasks()
	tasks[i] = t
	return p.apply(tasks, i+1)
}

// Rebase adopts c2 as the planner's chain, warm-starting from the longest
// common prefix with the current chain: only rows past the first
// scheduling-relevant difference (weight vector or replicability — names
// are cosmetic) are refilled. An identical chain refills nothing. This is
// the entry point strategy.ReplanBatch uses to re-plan an edited batch
// against an incumbent planner.
func (p *Planner) Rebase(c2 *core.Chain) error {
	if c2 == nil || c2.Len() == 0 {
		return fmt.Errorf("herad: planner needs a non-empty chain")
	}
	if c2.NumTypes() != p.r.NumTypes() {
		return fmt.Errorf("herad: chain declares %d core types, resources %d",
			c2.NumTypes(), p.r.NumTypes())
	}
	cp := commonPrefix(p.c, c2)
	if cp == c2.Len() && cp == p.c.Len() {
		p.c = c2
		p.lastRefilled = 0
		return nil
	}
	p.c = c2
	p.refill(cp + 1)
	return nil
}

// apply validates the edited task list as a chain, commits it and refills
// the invalidated row suffix. A rejected edit (core.NewChain error, type
// table mismatch) leaves the planner untouched.
func (p *Planner) apply(tasks []core.Task, from int) error {
	c, err := core.NewChain(tasks)
	if err != nil {
		return err
	}
	if c.NumTypes() != p.r.NumTypes() {
		return fmt.Errorf("herad: chain declares %d core types, resources %d",
			c.NumTypes(), p.r.NumTypes())
	}
	p.c = c
	p.refill(from)
	return nil
}

// refill resizes the matrix to the current chain length and recomputes
// rows from..n with the same row filler the from-scratch fill uses. Rows
// < from are read, never written.
func (p *Planner) refill(from int) {
	n := p.c.Len()
	if from < 1 {
		from = 1
	}
	refilled := n - from + 1
	if refilled < 0 {
		refilled = 0 // pure truncation (e.g. Remove of the last task)
	}
	p.lastRefilled = refilled
	om := p.o.Metrics
	rf, exit := om.Trace.Enter("dp_refill")
	rf.Int("tasks", n).Int("from_row", from).Int("rows", refilled)
	p.m.resize(n)
	p.m.fillRows(p.c, from, n, math.Inf(1), nil, om)
	exit()
}

// commonPrefix returns the number of leading tasks a and b agree on in
// every scheduling-relevant field (weights and replicability; names never
// enter the DP). Rows up to that count are valid for both chains.
func commonPrefix(a, b *core.Chain) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if !sameTask(a.Task(i), b.Task(i)) {
			return i
		}
	}
	return n
}

func sameTask(x, y core.Task) bool {
	if x.Replicable != y.Replicable || len(x.Weight) != len(y.Weight) {
		return false
	}
	for v := range x.Weight {
		if x.Weight[v] != y.Weight[v] {
			return false
		}
	}
	return true
}
