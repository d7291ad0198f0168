package twocatac

import (
	"fmt"
	"math/rand"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/sched"
)

// The memoized 2CATAC recursion: Algo 5 with the best completion of every
// (start task, remaining resources) cached within one binary-search probe.
// It collapses the exponential tree and returns the same schedules, which
// makes it an oracle for the paper-verbatim recursion and the ablation that
// prices it.

type memoKey struct {
	s int
	r core.Resources
}

// scheduleMemo is Schedule with a fresh memo table per probe.
func scheduleMemo(c *core.Chain, r core.Resources) core.Solution {
	return sched.Schedule(c, r, func(ch *core.Chain, res core.Resources, target float64, _ []core.Stage) core.Solution {
		return computeSolutionMemo(ch, 0, res, target, map[memoKey]core.Solution{})
	})
}

func computeSolutionMemo(c *core.Chain, s int, r core.Resources, target float64, memo map[memoKey]core.Solution) core.Solution {
	if got, ok := memo[memoKey{s, r}]; ok {
		return got
	}
	var sols [2]core.Solution
	for _, v := range []core.CoreType{core.Big, core.Little} {
		e, u := sched.ComputeStageM(c, s, r.Count(v), v, target, sched.Metrics{})
		switch {
		case u < 1 || u > r.Count(v) || c.Weight(s, e, u, v) > target:
		case e == c.Len()-1:
			sols[v] = core.Solution{Stages: []core.Stage{{Start: s, End: e, Cores: u, Type: v}}}
		default:
			rest := computeSolutionMemo(c, e+1, r.Consume(v, u), target, memo)
			if rest.IsValid(c, r.Consume(v, u), target) {
				sols[v] = prepend(core.Stage{Start: s, End: e, Cores: u, Type: v}, rest)
			}
		}
	}
	best := referenceChooseBestSolution(c, sols[core.Big], sols[core.Little], r, target)
	memo[memoKey{s, r}] = best
	return best
}

func TestMemoVariantIdenticalSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 60; iter++ {
		c := chaingen.Generate(chaingen.Default(1+rng.Intn(14), 0.5), rng)
		r := core.Res(1+rng.Intn(5), 1+rng.Intn(5))
		a := Schedule(c, r)
		b := scheduleMemo(c, r)
		if a.String() != b.String() {
			t.Fatalf("iter %d: memoized variant diverged:\n  plain %v\n  memo  %v", iter, a, b)
		}
	}
}

// BenchmarkAblation2CATACMemo compares the paper-verbatim exponential
// recursion against the memoized one on chains near the paper's 60-task
// practicality limit.
func BenchmarkAblation2CATACMemo(b *testing.B) {
	r := core.Res(10, 10)
	for _, n := range []int{20, 40, 60} {
		chains := chaingen.GenerateMany(chaingen.Default(n, 0.5), 7, 4)
		b.Run(fmt.Sprintf("plain/tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Schedule(chains[i%len(chains)], r)
			}
		})
		b.Run(fmt.Sprintf("memo/tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scheduleMemo(chains[i%len(chains)], r)
			}
		})
	}
}
