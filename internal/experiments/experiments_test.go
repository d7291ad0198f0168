package experiments

import (
	"math"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/dvbs2"
	"ampsched/internal/platform"
)

// quickCfg keeps experiment tests fast while preserving the statistics'
// shape (the full campaign runs from cmd/experiments).
func quickCfg() Table1Config {
	return Table1Config{Chains: 60, Seed: 20250704}
}

func TestRunDispatch(t *testing.T) {
	c := core.MustChain([]core.Task{{
		Weight: core.Weights(5, 10), Replicable: true,
	}})
	r := core.Res(2, 2)
	for _, name := range Strategies {
		s := Run(name, c, r)
		if s.IsEmpty() {
			t.Errorf("%s returned empty solution", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown strategy should panic")
		}
	}()
	Run("nope", c, r)
}

func TestTable1ScenarioShape(t *testing.T) {
	cells := Table1Scenario(quickCfg(), core.Res(10, 10), 0.5)
	if len(cells) != len(Strategies) {
		t.Fatalf("%d cells", len(cells))
	}
	byName := map[string]Table1Cell{}
	for _, c := range cells {
		byName[c.Strategy] = c
		if len(c.Slowdowns) != 60 {
			t.Fatalf("%s has %d slowdowns", c.Strategy, len(c.Slowdowns))
		}
		if c.MaxSlowdown < c.MedSlowdown-1e-12 || c.AvgSlowdown < 1-1e-9 {
			t.Errorf("%s: inconsistent stats %+v", c.Strategy, c)
		}
	}
	// The paper's qualitative ordering (Table I): HeRAD always optimal;
	// 2CATAC ≥ FERTAC ≥ OTAC(B) ≥ OTAC(L) in % optimal for (10,10).
	if byName[StratHeRAD].PctOptimal != 100 {
		t.Errorf("HeRAD optimal %.1f%%", byName[StratHeRAD].PctOptimal)
	}
	if byName[StratTwoCAT].PctOptimal < byName[StratFERTAC].PctOptimal {
		t.Errorf("2CATAC (%.1f%%) below FERTAC (%.1f%%)",
			byName[StratTwoCAT].PctOptimal, byName[StratFERTAC].PctOptimal)
	}
	if byName[StratFERTAC].PctOptimal < byName[StratOTACB].PctOptimal {
		t.Errorf("FERTAC (%.1f%%) below OTAC(B) (%.1f%%)",
			byName[StratFERTAC].PctOptimal, byName[StratOTACB].PctOptimal)
	}
	if byName[StratOTACL].AvgSlowdown < 2 {
		t.Errorf("OTAC(L) suspiciously good: %.2f", byName[StratOTACL].AvgSlowdown)
	}
	// OTAC(B) must use zero little cores and vice versa.
	if byName[StratOTACB].AvgLitUsed != 0 || byName[StratOTACL].AvgBigUsed != 0 {
		t.Error("OTAC variants used the wrong core type")
	}
}

func TestFig1DerivesCDFs(t *testing.T) {
	cells := Table1Scenario(quickCfg(), core.Res(4, 16), 0.2)
	series := Fig1(cells)
	if len(series) != len(HeuristicStrategies) {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.CDF) == 0 {
			t.Fatalf("%s: empty CDF", s.Strategy)
		}
		last := s.CDF[len(s.CDF)-1]
		if math.Abs(last.P-1) > 1e-9 {
			t.Errorf("%s: CDF does not reach 1 (%v)", s.Strategy, last.P)
		}
		if s.CDF[0].X < 1-1e-9 {
			t.Errorf("%s: slowdown below 1 (%v)", s.Strategy, s.CDF[0].X)
		}
	}
}

func TestFig2Heatmaps(t *testing.T) {
	res := Fig2(quickCfg())
	if res.All.Total() != 60 {
		t.Fatalf("all histogram has %d samples", res.All.Total())
	}
	if res.Opt.Total() > res.All.Total() || res.Opt.Total() == 0 {
		t.Fatalf("optimal subset %d of %d", res.Opt.Total(), res.All.Total())
	}
	// The paper: FERTAC uses at most 1-2 extra cores in most cases.
	if frac := ExtraCoresAtMost(res.All, 2); frac < 0.5 {
		t.Errorf("≤2 extra cores only %.2f of the time", frac)
	}
	if ExtraCoresAtMost(res.All, 40) != 1 {
		t.Error("≤40 extra cores must cover everything")
	}
}

func TestTimingFigs(t *testing.T) {
	cfg := TimingConfig{Chains: 3, Seed: 1}
	pts := Timing(cfg, []int{10, TwoCATACMaxTasks + 1}, []core.Resources{core.Res(8, 8)}, []float64{0.5})
	// 2CATAC must be skipped above its cap: 2 task counts × 5 strategies − 1.
	if len(pts) != 9 {
		t.Fatalf("%d timing points", len(pts))
	}
	for _, p := range pts {
		if p.Micros < 0 {
			t.Errorf("bad point %+v", p)
		}
		if p.Strategy == StratTwoCAT && p.Tasks > TwoCATACMaxTasks {
			t.Errorf("2CATAC ran at %d tasks", p.Tasks)
		}
	}
	pts4 := Timing(cfg, []int{10}, []core.Resources{core.Res(4, 4), core.Res(12, 12)}, []float64{0.5})
	if len(pts4) != 10 {
		t.Fatalf("%d fig4 points", len(pts4))
	}
	// HeRAD must slow down with more resources (the paper's Fig. 4).
	var hSmall, hBig float64
	for _, p := range pts4 {
		if p.Strategy == StratHeRAD {
			if p.R.Count(core.Big) == 4 {
				hSmall = p.Micros
			} else {
				hBig = p.Micros
			}
		}
	}
	if hBig < hSmall {
		t.Errorf("HeRAD faster with more resources: %v vs %v µs", hBig, hSmall)
	}
}

func TestTable2SimOnly(t *testing.T) {
	cfg := Table2Config{RunReal: false}
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20 (S1..S20)", len(rows))
	}
	// Check the published expected periods (µs) for the HeRAD rows.
	want := map[string]float64{
		"S1":  1128.7, // Mac (8,2)
		"S6":  950.6,  // Mac (16,4)
		"S11": 2722.1, // X7 (3,4)
		"S16": 1341.9, // X7 (6,8)
	}
	for _, r := range rows {
		if w, ok := want[r.ID]; ok && r.Strategy == StratHeRAD {
			if math.Abs(r.PeriodMicros-w) > 0.5 {
				t.Errorf("%s HeRAD period %.1f, paper %.1f", r.ID, r.PeriodMicros, w)
			}
		}
		if r.RealFPS != 0 {
			t.Errorf("%s: real run executed in sim-only mode", r.ID)
		}
		if r.SimFPS <= 0 || r.SimMbps <= 0 {
			t.Errorf("%s: no simulated throughput", r.ID)
		}
		// Simulated FPS must match the analytic period prediction.
		var plat *platform.Platform
		for _, p := range platform.All() {
			if p.Name == r.Platform {
				plat = p
			}
		}
		predicted := core.Throughput(r.PeriodMicros, plat.Interframe)
		if math.Abs(r.SimFPS-predicted) > predicted*0.01 {
			t.Errorf("%s: desim FPS %.0f vs analytic %.0f", r.ID, r.SimFPS, predicted)
		}
	}
	// Paper shape: OTAC(L) is far below HeRAD everywhere; OTAC(B) loses
	// badly on the X7 half configuration (S14 ≈ 53%... of HeRAD on full).
	byID := map[string]Table2Row{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	if byID["S5"].SimMbps > byID["S1"].SimMbps/5 {
		t.Errorf("OTAC(L) on Mac half: %.1f vs HeRAD %.1f", byID["S5"].SimMbps, byID["S1"].SimMbps)
	}
	if byID["S14"].SimMbps > byID["S11"].SimMbps*0.6 {
		t.Errorf("OTAC(B) on X7 half should lag HeRAD: %.1f vs %.1f",
			byID["S14"].SimMbps, byID["S11"].SimMbps)
	}
}

func TestTable2RealSingleConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	cfg := DefaultTable2Config()
	cfg.Platforms = []*platform.Platform{platform.X7Ti()}
	// What breaks the 25 % bound on a busy host is one stall of 70–190 ms
	// (a neighbour's burst, hypervisor steal) inside a row's measured
	// window, so the window is what is sized: every row measures ~0.6 s of
	// steady state — twice what the fastest rows had at 25 frames each —
	// and the slowest rows give up frames they did not need (12 frames
	// read the steady-state period within 3.5 % on every row; desim, same
	// warm-up rule). Periods are 13–75 ms of wall time at the default
	// scale; a larger scale buys nothing here, because a row's pipeline
	// fill (5–12 periods) grows with it and takes the frames away.
	cfg.TargetWallSec = 0.85
	cfg.MinFrames = 12
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.RealFPS <= 0 {
			t.Errorf("%s: no measured FPS", r.ID)
		}
		// The runtime should land within 25% of the prediction even on a
		// loaded CI machine.
		if math.Abs(r.RealFPS-r.SimFPS) > r.SimFPS*0.25 {
			t.Errorf("%s: measured %.0f FPS vs predicted %.0f", r.ID, r.RealFPS, r.SimFPS)
		}
	}
}

func TestFig5AndFig6(t *testing.T) {
	rows, err := Table2(Table2Config{RunReal: false})
	if err != nil {
		t.Fatal(err)
	}
	entries := Fig5(rows)
	if len(entries) != len(rows) {
		t.Fatalf("%d fig5 entries", len(entries))
	}
	for _, e := range entries {
		if e.Mbps <= 0 {
			t.Errorf("%s/%s: no throughput", e.Platform, e.Strategy)
		}
	}
	t1 := Table1Scenario(quickCfg(), core.Res(10, 10), 0.5)
	sums := Fig6(t1, rows)
	if len(sums) != len(Strategies) {
		t.Fatalf("%d summaries", len(sums))
	}
	for _, s := range sums {
		if s.Strategy == StratHeRAD {
			if !s.Optimal || math.Abs(s.AvgSlowdown-1) > 1e-9 {
				t.Errorf("HeRAD summary wrong: %+v", s)
			}
		} else if s.Optimal {
			t.Errorf("%s claims optimality", s.Strategy)
		}
		if s.TimeClass == "" {
			t.Errorf("%s: no time class", s.Strategy)
		}
	}
}

func TestTable3EmbeddedProfile(t *testing.T) {
	rows := Table3()
	if len(rows) != 23 {
		t.Fatalf("%d rows", len(rows))
	}
	// τ6 Sync Timing: 950.6 µs big / 1468.9 little on Mac Studio.
	r6 := rows[5]
	mac := r6.Weights["Mac Studio"]
	if mac[core.Big] != 950.6 || mac[core.Little] != 1468.9 {
		t.Errorf("τ6 Mac weights %v", mac)
	}
	if r6.Replicable {
		t.Error("τ6 must be sequential")
	}
	if !rows[18].Replicable { // τ19 BCH
		t.Error("τ19 must be replicable")
	}
}

func TestLiveProfileAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	chain, micros, err := LiveProfile(dvbs2.Test(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 23 || len(micros) != 23 {
		t.Fatalf("profile shape %d/%d", chain.Len(), len(micros))
	}
	// The QPSK demodulator and LDPC decoder must dominate the cheap glue
	// tasks in measured time.
	if micros[15] <= micros[13] {
		t.Errorf("demod (%.1fµs) not slower than PLH removal (%.1fµs)", micros[15], micros[13])
	}
	res, err := LiveRun(dvbs2.Test(), chain, StratHeRAD, core.Res(3, 2), 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.IsEmpty() || res.Measured <= 0 {
		t.Fatalf("live run result %+v", res)
	}
	if res.BER > 1e-3 {
		t.Errorf("live pipelined receiver BER %.2e", res.BER)
	}
}
