package platform

import (
	"math"
	"testing"

	"ampsched/internal/core"
)

func TestTableIIITotals(t *testing.T) {
	// Table III publishes the column totals; transcription must match.
	// Tolerance 0.25 µs: the paper's totals were computed from unrounded
	// latencies, so they differ from the sum of the published rows by up
	// to 0.2 µs (e.g. Mac B rows sum to 8531.0 vs the printed 8530.8).
	mac := MacStudio().Chain()
	x7 := X7Ti().Chain()
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"Mac B", mac.TotalW(core.Big), 8530.8},
		{"Mac L", mac.TotalW(core.Little), 19841.3},
		{"X7 B", x7.TotalW(core.Big), 12592.5},
		{"X7 L", x7.TotalW(core.Little), 22530.7},
	}
	for _, tc := range cases {
		if math.Abs(tc.got-tc.want) > 0.25 {
			t.Errorf("%s total = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestChainShape(t *testing.T) {
	for _, p := range All() {
		c := p.Chain()
		if c.Len() != 23 {
			t.Fatalf("%s: %d tasks, want 23", p.Name, c.Len())
		}
		// 10 replicable tasks in Table III (τ11, τ13..τ20, τ23).
		if got := c.Len() - seqCount(c); got != 10 {
			t.Errorf("%s: %d replicable tasks, want 10", p.Name, got)
		}
		// Little latency is never below big latency on these platforms.
		for i := 0; i < c.Len(); i++ {
			tk := c.Task(i)
			if tk.W(core.Little) < tk.W(core.Big) {
				t.Errorf("%s task %d (%s): little %v < big %v",
					p.Name, i, tk.Name, tk.W(core.Little), tk.W(core.Big))
			}
		}
	}
}

func TestSlowestTasks(t *testing.T) {
	// The paper highlights τ6 (Sync Timing) as the slowest sequential task
	// and τ19 (BCH) as the slowest replicable task on both platforms.
	for _, p := range All() {
		c := p.Chain()
		if got := maxBigWeight(c, true); got != c.Task(5).W(core.Big) {
			t.Errorf("%s: slowest sequential big task = %v, want τ6's %v",
				p.Name, got, c.Task(5).W(core.Big))
		}
		if got := maxBigWeight(c, false); got != c.Task(18).W(core.Big) {
			t.Errorf("%s: slowest big task = %v, want τ19's %v",
				p.Name, got, c.Task(18).W(core.Big))
		}
	}
}

func TestConfigs(t *testing.T) {
	mac := MacStudio()
	cfgs := mac.Configs()
	if len(cfgs) != 2 {
		t.Fatalf("%d configs", len(cfgs))
	}
	if cfgs[0] != (core.Res(8, 2)) {
		t.Errorf("half config = %v", cfgs[0])
	}
	if cfgs[1] != (core.Res(16, 4)) {
		t.Errorf("full config = %v", cfgs[1])
	}
	x7 := X7Ti()
	if got := x7.Configs()[0]; got != (core.Res(3, 4)) {
		t.Errorf("X7 half config = %v", got)
	}
	if x7.Interframe != 8 || mac.Interframe != 4 {
		t.Error("interframe levels wrong")
	}
}

func TestMbPerSecond(t *testing.T) {
	// Table II S1: 3544 FPS ↔ 50.4 Mb/s.
	if got := MbPerSecond(3544); math.Abs(got-50.4) > 0.05 {
		t.Errorf("MbPerSecond(3544) = %v, want ≈50.4", got)
	}
}

// seqCount is the number of sequential tasks of c.
func seqCount(c *core.Chain) int {
	n := 0
	for i := 0; i < c.Len(); i++ {
		if !c.Task(i).Replicable {
			n++
		}
	}
	return n
}

// maxBigWeight is the largest big-core weight among c's tasks, or among
// its sequential ones.
func maxBigWeight(c *core.Chain, seqOnly bool) float64 {
	m := 0.0
	for i := 0; i < c.Len(); i++ {
		if tk := c.Task(i); !(seqOnly && tk.Replicable) {
			m = max(m, tk.W(core.Big))
		}
	}
	return m
}
