package herad

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// The paper's HeRAD for two types of resources, transcribed as printed
// (Algos 7–11): a 3D solution matrix over (tasks, big, little), no
// dominance pruning, no ε, no hoisting. It is the oracle the k-type fill is
// compared against at k=2 — schedules, not just periods — so every
// shortcut the fill takes (period-first compare, usage vectors beside the
// cells, the pruned split loop) is checked against the text it claims to
// implement.

// refCell is one entry of the solution matrix S (Algo 7 lines 1–7).
type refCell struct {
	pbest        float64
	accB, accL   int // accumulated cores of each type
	prevB, prevL int // resources left to the predecessor subproblem
	start        int // 0-based first task of the last stage
	v            core.CoreType
}

type refMatrix struct {
	cells []refCell
	b, l  int
	ties  int // CompareCells calls that met equal periods
}

func (m *refMatrix) at(j, rb, rl int) *refCell {
	return &m.cells[(j*(m.b+1)+rb)*(m.l+1)+rl]
}

// refSchedule is Algo 7: initialize S, seed every row with its single-stage
// solutions, recompute every cell from row 2 on, extract.
func refSchedule(c *core.Chain, b, l int) (core.Solution, int) {
	n := c.Len()
	m := &refMatrix{cells: make([]refCell, (n+1)*(b+1)*(l+1)), b: b, l: l}
	for i := (b + 1) * (l + 1); i < len(m.cells); i++ {
		m.cells[i].pbest = math.Inf(1) // row 0 stays P*(0, ·, ·) = 0
	}
	for t := 1; t <= n; t++ {
		m.singleStageSolution(c, t)
	}
	for j := 2; j <= n; j++ {
		for rb := 0; rb <= b; rb++ {
			for rl := 0; rl <= l; rl++ {
				if rb+rl > 0 {
					m.recomputeCell(c, j, rb, rl)
				}
			}
		}
	}
	return m.extractSolution(n), m.ties
}

// singleStageSolution is Algo 8: the first t tasks in one stage, on
// increasing numbers of big cores against increasing numbers of little
// cores, ties in favor of the little ones.
func (m *refMatrix) singleStageSolution(c *core.Chain, t int) {
	used := func(r int) int {
		if c.IsRep(0, t-1) {
			return r
		}
		return 1
	}
	for rl := 1; rl <= m.l; rl++ {
		*m.at(t, 0, rl) = refCell{pbest: c.Weight(0, t-1, rl, core.Little), accL: used(rl), v: core.Little}
	}
	for rb := 1; rb <= m.b; rb++ {
		wb := c.Weight(0, t-1, rb, core.Big)
		for rl := 0; rl <= m.l; rl++ {
			if little := m.at(t, 0, rl); wb < little.pbest {
				*m.at(t, rb, rl) = refCell{pbest: wb, accB: used(rb), v: core.Big}
			} else {
				*m.at(t, rb, rl) = *little
			}
		}
	}
}

// recomputeCell is Algo 9: the seed against the two neighbors with one core
// less, then every split point and core count on both types (Eq. 4).
func (m *refMatrix) recomputeCell(c *core.Chain, j, b, l int) {
	cur := *m.at(j, b, l)
	if l > 0 {
		m.compareCells(&cur, *m.at(j, b, l-1))
	}
	if b > 0 {
		m.compareCells(&cur, *m.at(j, b-1, l))
	}
	for i := j; i >= 1; i-- {
		maxB, maxL := b, l
		if !c.IsRep(i-1, j-1) { // a sequential stage runs on one core
			maxB, maxL = min(b, 1), min(l, 1)
		}
		for u := 1; u <= maxB; u++ {
			prev := m.at(i-1, b-u, l)
			m.compareCells(&cur, refCell{
				pbest: math.Max(prev.pbest, c.Weight(i-1, j-1, u, core.Big)),
				accB:  prev.accB + u, accL: prev.accL,
				prevB: b - u, prevL: l, start: i - 1, v: core.Big,
			})
		}
		for u := 1; u <= maxL; u++ {
			prev := m.at(i-1, b, l-u)
			m.compareCells(&cur, refCell{
				pbest: math.Max(prev.pbest, c.Weight(i-1, j-1, u, core.Little)),
				accB:  prev.accB, accL: prev.accL + u,
				prevB: b, prevL: l - u, start: i - 1, v: core.Little,
			})
		}
	}
	*m.at(j, b, l) = cur
}

// compareCells is Algo 10 as printed: cand replaces cur on a strictly
// smaller period or, at equal periods, when it exchanges big cores for
// little ones or uses no more cores of either type.
func (m *refMatrix) compareCells(cur *refCell, cand refCell) {
	if cur.pbest == cand.pbest {
		m.ties++
	}
	switch {
	case cur.pbest > cand.pbest:
		*cur = cand
	case cur.pbest == cand.pbest &&
		((cur.accL < cand.accL && cur.accB > cand.accB) ||
			(cur.accL >= cand.accL && cur.accB >= cand.accB)):
		*cur = cand
	}
}

// extractSolution is Algo 11: walk S backwards from the full problem; a
// stage's cores are its accumulated usage minus its predecessor's.
func (m *refMatrix) extractSolution(n int) core.Solution {
	var sol core.Solution
	for e, rb, rl := n, m.b, m.l; e >= 1; {
		cl := m.at(e, rb, rl)
		if math.IsInf(cl.pbest, 1) {
			return core.Solution{}
		}
		prev := m.at(cl.start, cl.prevB, cl.prevL)
		cores := cl.accB - prev.accB
		if cl.v == core.Little {
			cores = cl.accL - prev.accL
		}
		sol = sol.Prepend(core.Stage{Start: cl.start, End: e - 1, Cores: cores, Type: cl.v})
		e, rb, rl = cl.start, cl.prevB, cl.prevL
	}
	return sol
}

// TestMatchesPaperReferenceK2 holds the fill to the paper's text on
// two-type platforms: the same stages, core counts and tie-breaks, not
// merely the same period. Half the instances draw small integer weights,
// often equal on both types, so equal-period candidates — where only
// Algo 10's secondary objective separates the fill from the reference —
// are the rule rather than the exception (asserted, not assumed).
func TestMatchesPaperReferenceK2(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ties := 0
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(9)
		var c *core.Chain
		if iter%2 == 0 {
			sr := []float64{0, 0.2, 0.5, 0.8, 1}[rng.Intn(5)]
			c = chaingen.Generate(chaingen.Default(n, sr), rng)
		} else {
			tasks := make([]core.Task, n)
			for i := range tasks {
				wb := float64(1 + rng.Intn(4))
				tasks[i] = task(wb, wb*float64(1+rng.Intn(2)), rng.Intn(3) > 0)
			}
			c = core.MustChain(tasks)
		}
		b, l := rng.Intn(5), rng.Intn(5)
		want, tied := refSchedule(c, b, l)
		got := ScheduleRaw(c, core.Res(b, l))
		if !slices.Equal(got.Stages, want.Stages) {
			t.Fatalf("iter %d (R=(%d,%d)):\nfill      %v\nreference %v\nchain=%+v",
				iter, b, l, got, want, c.Tasks())
		}
		if iter%2 == 1 {
			ties += tied
		}
	}
	if ties < 1000 {
		t.Fatalf("integer-weight instances met only %d equal-period comparisons: tie-breaks not exercised", ties)
	}
}
