// Package brute provides an exhaustive-search reference solver for small
// problem instances. It enumerates every interval partition of the chain
// and every per-stage core-type/core-count assignment that respects the
// resources, and reports the minimum period. Tests use it to certify
// HeRAD's optimality (period and secondary objective) on random small
// chains; it is exponential and must not be used beyond ~12 tasks.
package brute

import (
	"math"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// Metrics holds the exhaustive solver's instrumentation handles. The
// zero value is the disabled sink.
type Metrics struct {
	// Solutions counts the complete solutions enumerated.
	Solutions *obs.Counter
	// Improvements counts how often the incumbent best solution was
	// replaced (by a better period or a better tie-break).
	Improvements *obs.Counter
	// Trace is the decision-journal scope. The enumeration emits one
	// "improved" event per incumbent replacement plus a final
	// "enumeration" summary — not one event per enumerated solution,
	// which would be exponential.
	Trace *trace.Scope
}

// MetricsFrom resolves the solver's series in r (nil r disables).
func MetricsFrom(r *obs.Registry) Metrics {
	return Metrics{
		Solutions:    r.Counter("brute.enumerate.solutions"),
		Improvements: r.Counter("brute.search.improvements"),
	}
}

// Enumerate calls fn for every structurally valid complete solution of c
// under resources r, whatever the number of core types. Sequential stages
// are only generated with one core (extra cores never reduce a sequential
// stage's weight and only waste resources, so this loses no optimal
// solution under either objective).
func Enumerate(c *core.Chain, r core.Resources, fn func(core.Solution)) {
	k := r.NumTypes()
	var stages []core.Stage
	var rec func(s int, rem core.Resources)
	rec = func(s int, rem core.Resources) {
		if s == c.Len() {
			sol := core.Solution{Stages: append([]core.Stage(nil), stages...)}
			fn(sol)
			return
		}
		for e := s; e < c.Len(); e++ {
			rep := c.IsRep(s, e)
			for v := core.CoreType(0); int(v) < k; v++ {
				maxU := rem.Count(v)
				if !rep {
					maxU = min(1, maxU)
				}
				for u := 1; u <= maxU; u++ {
					stages = append(stages, core.Stage{Start: s, End: e, Cores: u, Type: v})
					rec(e+1, rem.Consume(v, u))
					stages = stages[:len(stages)-1]
				}
			}
		}
	}
	rec(0, r)
}

// Schedule returns an optimal-period solution of c on r, breaking period
// ties with the paper's secondary objective (Beats), reporting into m (the
// zero Metrics disables). It returns the empty solution when no valid
// schedule exists. Like the rest of the package it is exponential: do not
// use beyond ~12 tasks.
func Schedule(c *core.Chain, r core.Resources, m Metrics) core.Solution {
	if c == nil || c.Len() == 0 || r.Total() <= 0 || !r.NonNegative() {
		return core.Solution{}
	}
	if c.NumTypes() != r.NumTypes() {
		return core.Solution{} // chain and platform disagree on the type table
	}
	var best core.Solution
	bestP := math.Inf(1)
	enumerated := 0
	Enumerate(c, r, func(s core.Solution) {
		m.Solutions.Inc()
		enumerated++
		p := s.Period(c)
		switch {
		case p < bestP:
			m.Improvements.Inc()
			best, bestP = s, p
			if m.Trace.Enabled() {
				m.Trace.Event("improved").F64("period", p).Int("stages", len(s.Stages))
			}
		case p == bestP && !best.IsEmpty():
			if BeatsVec(s.Usage(r.NumTypes()), best.Usage(r.NumTypes())) {
				m.Improvements.Inc()
				best = s
				if m.Trace.Enabled() {
					m.Trace.Event("improved").F64("period", p).Bool("tie_break", true)
				}
			}
		}
	})
	if m.Trace.Enabled() {
		m.Trace.Event("enumeration").Int("solutions", enumerated)
	}
	return best
}

// MinPeriod returns the optimal (minimum) period of c on r, or +Inf when
// no valid solution exists.
func MinPeriod(c *core.Chain, r core.Resources) float64 {
	best := math.Inf(1)
	Enumerate(c, r, func(s core.Solution) {
		if p := s.Period(c); p < best {
			best = p
		}
	})
	return best
}

// Beats reports whether core usage (bN, lN) is strictly preferable to
// (bC, lC) under the paper's secondary objective (CompareCells, Algo 10):
// it either exchanges big cores for little ones, or uses no more cores of
// either type with at least one strict improvement. Case analysis shows
// both clauses together are exactly the strict lexicographic order on the
// (big, little) usage pair — the two-type instance of BeatsVec.
func Beats(bN, lN, bC, lC int) bool {
	return BeatsVec([]int{bN, lN}, []int{bC, lC})
}

// BeatsVec reports whether the per-type core usage n is strictly
// preferable to c under the k-type secondary objective: strictly
// lexicographically smaller, so a schedule first saves cores of type 0
// (the paper's big cores), then of type 1, and so on. At k=2 this is
// provably the paper's Algo 10 preference.
func BeatsVec(n, c []int) bool {
	for v := range n {
		if n[v] != c[v] {
			return n[v] < c[v]
		}
	}
	return false
}

// OptimalUsages returns the core usages of every optimal-period solution.
func OptimalUsages(c *core.Chain, r core.Resources) (period float64, usages [][2]int) {
	period = MinPeriod(c, r)
	if math.IsInf(period, 1) {
		return period, nil
	}
	seen := map[[2]int]bool{}
	Enumerate(c, r, func(s core.Solution) {
		if s.Period(c) <= period {
			b, l := s.CoresUsed()
			if !seen[[2]int{b, l}] {
				seen[[2]int{b, l}] = true
				usages = append(usages, [2]int{b, l})
			}
		}
	})
	return period, usages
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
