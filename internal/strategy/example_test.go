package strategy_test

import (
	"fmt"

	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/platform"
	"ampsched/internal/strategy"
)

// Example_quickstart models a small partially-replicable task chain,
// schedules it on two big and four little cores with every strategy of
// the table in one PlanBatch, and validates HeRAD's schedule with the
// discrete-event simulator.
func Example_quickstart() {
	// Weights are (big, little) latencies in µs; stateful tasks
	// (Replicable: false) cannot be replicated.
	chain := core.MustChain([]core.Task{
		{Name: "capture", Weight: core.Weights(40, 90), Replicable: false},
		{Name: "filter", Weight: core.Weights(120, 300), Replicable: true},
		{Name: "demod", Weight: core.Weights(200, 520), Replicable: true},
		{Name: "decode", Weight: core.Weights(310, 700), Replicable: true},
		{Name: "emit", Weight: core.Weights(25, 60), Replicable: false},
	})
	r := core.Res(2, 4)

	var reqs []strategy.Request
	for _, s := range strategy.All() {
		reqs = append(reqs, strategy.Request{Chain: chain, Resources: r, Scheduler: s, Label: s.Name()})
	}
	results := strategy.PlanBatch(reqs, 0) // in request order: HeRAD first
	fmt.Printf("%-10s %-10s %-8s %s\n", "strategy", "period µs", "cores", "pipeline")
	for _, res := range results {
		b, l := res.Solution.CoresUsed()
		fmt.Printf("%-10s %-10.1f (%d,%d)    %v\n", res.Request.Label, res.Period, b, l, res.Solution)
	}

	// Push 2000 frames through HeRAD's pipeline with two-slot buffers.
	best := results[0].Solution
	sim, err := desim.Simulate(chain, best, desim.Config{Frames: 2000, QueueCap: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("simulated period %.1f µs (analytic %.1f), latency %.1f µs\n",
		sim.Period, best.Period(chain), sim.Latency)
	// Output:
	// strategy   period µs  cores    pipeline
	// HeRAD      233.3      (2,4)    (2,1B),(1,1B),(1,3L),(1,1L)
	// 2CATAC     233.3      (2,4)    (2,1B),(1,1B),(1,3L),(1,1L)
	// FERTAC     310.0      (2,4)    (1,1L),(2,3L),(1,1B),(1,1B)
	// OTAC (B)   360.0      (2,0)    (3,1B),(2,1B)
	// OTAC (L)   610.0      (0,4)    (2,1L),(2,2L),(1,1L)
	// simulated period 233.3 µs (analytic 233.3), latency 2160.0 µs
}

// Example_powersave shows the paper's secondary objective: with six big
// cores and a growing little-core budget, HeRAD moves the replicable
// stages onto little cores and keeps the big ones for the sequential
// bottleneck. Stage co-location then trades period for watts.
func Example_powersave() {
	p := platform.X7Ti()
	chain := p.Chain()
	herad := strategy.MustParse("herad")

	base := strategy.MustParse("otac-b").Schedule(chain, core.Res(6, 0), strategy.Options{}).Period(chain)
	fmt.Printf("OTAC (B) on (6B,0L): period %.1f µs\n", base)
	for l := 2; l <= 10; l += 2 {
		s := herad.Schedule(chain, core.Res(6, l), strategy.Options{})
		b, lu := s.CoresUsed()
		fmt.Printf("HeRAD on (6B,%dL): period %.1f µs, %.2f× OTAC (B), cores %d/%d\n",
			l, s.Period(chain), base/s.Period(chain), b, lu)
	}

	// With ties, HeRAD prefers little cores.
	tie := core.MustChain([]core.Task{{Name: "even", Weight: core.Weights(100, 100)}})
	b, l := herad.Schedule(tie, core.Res(4, 4), strategy.Options{}).CoresUsed()
	fmt.Printf("equal-speed task on (4B,4L): %d big, %d little\n", b, l)

	pm := core.DefaultPowerModel()
	sched := herad.Schedule(chain, core.Res(6, 8), strategy.Options{})
	period := sched.Period(chain)
	for _, slack := range []float64{1, 1.5, 2, 3} {
		fused := sched.Fuse(chain, period*slack)
		bb, ll := fused.CoresUsed()
		fmt.Printf("≤%.1f× period: %d stages, (%dB,%dL), %.0f W, %.2f mJ/frame\n",
			slack, len(fused.Stages), bb, ll, pm.Power(fused),
			1000*pm.EnergyPerFrame(fused, fused.Period(chain)))
	}
	// Output:
	// OTAC (B) on (6B,0L): period 2867.0 µs
	// HeRAD on (6B,2L): period 2150.3 µs, 1.33× OTAC (B), cores 6/2
	// HeRAD on (6B,4L): period 1720.2 µs, 1.67× OTAC (B), cores 6/4
	// HeRAD on (6B,6L): period 1361.0 µs, 2.11× OTAC (B), cores 6/6
	// HeRAD on (6B,8L): period 1341.9 µs, 2.14× OTAC (B), cores 5/8
	// HeRAD on (6B,10L): period 1341.9 µs, 2.14× OTAC (B), cores 4/10
	// equal-speed task on (4B,4L): 0 big, 1 little
	// ≤1.0× period: 6 stages, (5B,8L), 28 W, 37.57 mJ/frame
	// ≤1.5× period: 5 stages, (4B,8L), 24 W, 47.77 mJ/frame
	// ≤2.0× period: 5 stages, (4B,8L), 24 W, 57.35 mJ/frame
	// ≤3.0× period: 4 stages, (3B,8L), 20 W, 60.77 mJ/frame
}
