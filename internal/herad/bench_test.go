package herad

import (
	"fmt"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
)

// These are the micro rows DESIGN.md §4g quotes, at sizes the repository
// benchmark (bench/) does not run: its planner workloads stop at n=512.
// Inputs and seeds are fixed so numbers stay comparable across commits.
// One op is 0.2–1.3 s, so `-benchtime=1x` (CI's smoke run) is one fill.

// BenchmarkFillScale is the large-n sweep behind the ε-beam fill: the
// exact fill against the ε fill on R=(4,4), one to two orders of magnitude
// past the paper's chain lengths, where the O(n²) split-point scan
// dominates.
func BenchmarkFillScale(b *testing.B) {
	r := core.Res(4, 4)
	for _, bc := range []struct {
		n   int
		eps float64
	}{{2048, 0}, {2048, 0.01}, {2048, 0.05}, {4096, 0}, {4096, 0.05}} {
		c := chaingen.GenerateMany(chaingen.Default(bc.n, 0.5), 11, 1)[0]
		name := fmt.Sprintf("n%d/exact", bc.n)
		if bc.eps > 0 {
			name = fmt.Sprintf("n%d/eps=%v", bc.n, bc.eps)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := ScheduleOpts(c, r, Options{Epsilon: bc.eps}); s.IsEmpty() {
					b.Fatal("no schedule")
				}
			}
		})
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
