package herad

import (
	"fmt"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// These are the micro rows DESIGN.md §4g quotes, at sizes the repository
// benchmark (bench/) does not run: its planner workloads stop at n=1024
// on (4,4) and at n=160 on (20,20).
// Inputs and seeds are fixed so numbers stay comparable across commits.
// One op is 0.1–1 s, so `-benchtime=1x` (CI's smoke run) is one fill.
// BenchmarkAblationMergePostPass, last, is the merge post-pass's ablation,
// kept here because only this package can call the raw extraction.

// BenchmarkFillScale is the large-n sweep of the fill on R=(4,4), one to
// two orders of magnitude past the paper's chain lengths. A step-by-step
// walk would visit O(n) splits per cell here; the empty-split jump leaves
// about five, so the fill grows with the cells and a logarithmic
// bisection per cell.
func BenchmarkFillScale(b *testing.B) {
	r := core.Res(4, 4)
	for _, n := range []int{2048, 4096} {
		c := chaingen.GenerateMany(chaingen.Default(n, 0.5), 11, 1)[0]
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := Schedule(c, r); s.IsEmpty() {
					b.Fatal("no schedule")
				}
			}
		})
	}
}

// BenchmarkFillFig4 is Fig. 4's largest point, n = 20 on R = (160,160):
// a short chain on a wide platform, few splits per cell and up to 160
// counts per type at each.
func BenchmarkFillFig4(b *testing.B) {
	c := chaingen.GenerateMany(chaingen.Default(20, 0.8), 13, 1)[0]
	r := core.Res(160, 160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := Schedule(c, r); s.IsEmpty() {
			b.Fatal("no schedule")
		}
	}
}

// BenchmarkReplanTail measures the chain-edit warm start: one op is "react
// to a reweigh of task n−8 of a 2048-task chain", either by scheduling the
// edited chain from scratch or by applying the edit to an incumbent
// Planner (which refills the 8 invalidated tail rows) and extracting the
// solution. Both produce bit-identical schedules (planner_test.go), so the
// pair is a pure wall-clock comparison. The edit alternates scale 1.25 /
// 0.8 so the workload is stationary across iterations.
func BenchmarkReplanTail(b *testing.B) {
	const tasks = 2048
	const edit = tasks - 8
	base := chaingen.GenerateMany(chaingen.Default(tasks, 0.5), 17, 1)[0]
	r := core.Res(4, 4)
	scales := [2]float64{1.25, 0.8}
	retask := func(t core.Task, scale float64) core.Task {
		w := append([]float64(nil), t.Weight...)
		for v := range w {
			w[v] *= scale
		}
		return core.Task{Name: t.Name, Weight: w, Replicable: t.Replicable}
	}
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		cur := base
		for i := 0; i < b.N; i++ {
			ts := cur.Tasks()
			ts[edit] = retask(ts[edit], scales[i%2])
			c, err := core.NewChain(ts)
			if err != nil {
				b.Fatal(err)
			}
			cur = c
			if s := Schedule(cur, r); s.IsEmpty() {
				b.Fatal("no schedule")
			}
		}
	})
	b.Run("edit_tail", func(b *testing.B) {
		// The incumbent's initial full fill is the cost the warm starts
		// amortize away: it is set-up, not part of an op.
		p, err := NewPlanner(base, r, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Reweigh(edit, retask(p.Chain().Task(edit), scales[i%2])); err != nil {
				b.Fatal(err)
			}
			if s := p.Solution(); s.IsEmpty() {
				b.Fatal("no schedule")
			}
		}
	})
}

// BenchmarkAblationMergePostPass measures the cost of the replicable-stage
// merge post-pass (raw extraction vs merged).
func BenchmarkAblationMergePostPass(b *testing.B) {
	chains := chaingen.GenerateMany(chaingen.Default(40, 0.8), 7, 4)
	r := core.Res(8, 8)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheduleRaw(chains[i%len(chains)], r, Options{})
		}
	})
	b.Run("merged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Schedule(chains[i%len(chains)], r)
		}
	})
}
