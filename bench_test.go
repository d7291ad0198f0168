// Package ampsched_test holds the benchmark harness that regenerates the
// paper's evaluation artifacts: one benchmark per table and figure (run
// with `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design choices called out in DESIGN.md (desim queue capacities, HeRAD
// scaling in tasks vs resources; 2CATAC memoization is in
// internal/twocatac/memo_test.go, beside its memoized oracle, HeRAD's merge
// post-pass in internal/herad/bench_test.go, beside the raw extraction it
// times, and static vs dynamic dispatch in dynamic_test.go, beside its
// dynamic executor).
//
// The benchmarks exercise reduced campaign sizes so a full -bench=. pass
// stays in the minutes range on a laptop; cmd/experiments runs the
// paper-sized campaigns.
package ampsched_test

import (
	"fmt"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/experiments"
	"ampsched/internal/herad"
	"ampsched/internal/platform"
	"ampsched/internal/strategy"
)

// BenchmarkTable1 regenerates one Table I scenario (R=(10,10), SR=0.5):
// all five strategies over a batch of random 20-task chains.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Table1Config{Chains: 20, Seed: 20250704}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := experiments.Table1Scenario(cfg, core.Res(10, 10), 0.5)
		if cells[0].PctOptimal != 100 {
			b.Fatal("HeRAD not optimal")
		}
	}
}

// BenchmarkFig1 regenerates the slowdown CDFs from a Table I scenario.
func BenchmarkFig1(b *testing.B) {
	cfg := experiments.Table1Config{Chains: 40, Seed: 1}
	cells := experiments.Table1Scenario(cfg, core.Res(4, 16), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig1(cells); len(s) == 0 {
			b.Fatal("no series")
		}
	}
}

// BenchmarkFig2 regenerates the FERTAC-vs-HeRAD core-usage heatmaps.
func BenchmarkFig2(b *testing.B) {
	cfg := experiments.Table1Config{Chains: 20, Seed: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(cfg)
		if res.All.Total() != 20 {
			b.Fatal("bad total")
		}
	}
}

// benchChains builds a deterministic batch of chains for the scheduler
// benchmarks (Figs. 3–4).
func benchChains(n int, sr float64, count int) []*core.Chain {
	return chaingen.GenerateMany(chaingen.Default(n, sr), 7, count)
}

// BenchmarkFig3 regenerates Fig. 3's execution-time rows: each strategy's
// scheduling time for growing task counts at R=(20,20), SR=0.5.
// (2CATAC stops at 60 tasks, as in the paper.)
func BenchmarkFig3(b *testing.B) {
	r := core.Res(20, 20)
	for _, n := range []int{20, 40, 60, 80, 120, 160} {
		chains := benchChains(n, 0.5, 8)
		for _, strat := range experiments.Strategies {
			if strat == experiments.StratTwoCAT && n > 60 {
				continue
			}
			if strat == experiments.StratHeRAD && n > 120 {
				continue // minutes per op at (20,20)×160 on small machines
			}
			b.Run(fmt.Sprintf("%s/tasks=%d", strat, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := experiments.Run(strat, chains[i%len(chains)], r)
					if s.IsEmpty() {
						b.Fatal("no schedule")
					}
				}
			})
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4's rows: scheduling time for growing
// resource counts at a fixed 20-task chain, SR=0.5.
func BenchmarkFig4(b *testing.B) {
	chains := benchChains(20, 0.5, 8)
	for _, cores := range []int{20, 40, 80, 160} {
		r := core.Res(cores, cores)
		for _, strat := range experiments.Strategies {
			b.Run(fmt.Sprintf("%s/cores=%d", strat, 2*cores), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := experiments.Run(strat, chains[i%len(chains)], r)
					if s.IsEmpty() {
						b.Fatal("no schedule")
					}
				}
			})
		}
	}
}

// BenchmarkTable2 regenerates Table II's schedule computations and
// discrete-event validations for all 20 rows (simulation only; the
// runtime rows are wall-clock experiments driven by cmd/experiments).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.Table2Config{RunReal: false})
		if err != nil || len(rows) != 20 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkTable3 regenerates the Table III model chains from the
// embedded profiles (the scheduling input of the real-world experiment).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		if len(rows) != 23 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5's per-strategy throughput series via
// the discrete-event simulator on the Mac Studio full configuration.
func BenchmarkFig5(b *testing.B) {
	p := platform.MacStudio()
	c := p.Chain()
	r := core.Res(16, 4)
	sols := map[string]core.Solution{}
	for _, strat := range experiments.Strategies {
		sols[strat] = experiments.Run(strat, c, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sol := range sols {
			res, err := desim.Simulate(c, sol, desim.Config{Frames: 1000, QueueCap: 2})
			if err != nil || res.Period <= 0 {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6 regenerates the summary roll-up.
func BenchmarkFig6(b *testing.B) {
	cfg := experiments.Table1Config{Chains: 20, Seed: 3}
	t1 := experiments.Table1Scenario(cfg, core.Res(10, 10), 0.5)
	t2, err := experiments.Table2(experiments.Table2Config{RunReal: false})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig6(t1, t2); len(s) != 5 {
			b.Fatal("bad summary")
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationDesimQueueCap sweeps the inter-stage buffer capacity:
// deterministic flow lines reach the bottleneck rate for any capacity ≥ 1,
// so the simulated period should not change — only the simulation cost.
func BenchmarkAblationDesimQueueCap(b *testing.B) {
	p := platform.X7Ti()
	c := p.Chain()
	sol := herad.Schedule(c, core.Res(6, 8))
	for _, cap := range []int{0, 1, 2, 8} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := desim.Simulate(c, sol, desim.Config{Frames: 1000, QueueCap: cap})
				if err != nil {
					b.Fatal(err)
				}
				if res.Period < 1341 || res.Period > 1343 {
					b.Fatalf("cap %d changed the period: %v", cap, res.Period)
				}
			}
		})
	}
}

// BenchmarkRegistry drives every registered strategy through the unified
// interface on the paper's two real platform chains (Table II
// configurations). Brute is skipped: exhaustive enumeration of the 23-task
// DVB-S2 chain is intractable.
func BenchmarkRegistry(b *testing.B) {
	platforms := []struct {
		name string
		c    *core.Chain
		r    core.Resources
	}{
		{"mac", platform.MacStudio().Chain(), core.Res(16, 4)},
		{"x7", platform.X7Ti().Chain(), core.Res(6, 8)},
	}
	for _, p := range platforms {
		for _, s := range strategy.All() {
			b.Run(fmt.Sprintf("%s/%s", p.name, s.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if sol := s.Schedule(p.c, p.r, strategy.Options{}); sol.IsEmpty() {
						b.Fatal("no schedule")
					}
				}
			})
		}
	}
}

// BenchmarkPlanBatch measures the concurrent planning layer against its
// serial fast path on a Table I-shaped request batch.
func BenchmarkPlanBatch(b *testing.B) {
	chains := benchChains(20, 0.5, 16)
	r := core.Res(10, 10)
	var reqs []strategy.Request
	for _, c := range chains {
		for _, s := range strategy.All() {
			reqs = append(reqs, strategy.Request{Chain: c, Resources: r, Scheduler: s})
		}
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := strategy.PlanBatch(reqs, workers)
				if len(res) != len(reqs) || res[0].Err != nil {
					b.Fatalf("bad batch: %d results, err %v", len(res), res[0].Err)
				}
			}
		})
	}
}
