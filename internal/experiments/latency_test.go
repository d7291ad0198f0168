package experiments

import (
	"runtime"
	"testing"

	"ampsched/internal/obs"
)

func TestLatencyExtension(t *testing.T) {
	rows, err := Latency(Campaign{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20", len(rows))
	}
	byKey := map[string]LatencyRow{}
	for _, r := range rows {
		byKey[r.Platform+r.R.String()+r.Strategy] = r
		if r.LatencyMicros < r.PeriodMicros {
			t.Errorf("%s/%s/%v: latency %v below one period %v",
				r.Platform, r.Strategy, r.R, r.LatencyMicros, r.PeriodMicros)
		}
		// Latency must at least cover the stage count (every frame
		// traverses each stage once).
		if r.LatencyPeriods < float64(r.Stages)-1 {
			t.Errorf("%s/%s/%v: latency %.1f periods below %d stages",
				r.Platform, r.Strategy, r.R, r.LatencyPeriods, r.Stages)
		}
	}
	// Fig. 6's claim: 2CATAC builds shorter pipelines than HeRAD on the
	// Mac half configuration (5 vs 7 stages, Table II S1/S2).
	h := byKey["Mac Studio(8B,2L)"+StratHeRAD]
	c := byKey["Mac Studio(8B,2L)"+StratTwoCAT]
	if c.Stages >= h.Stages {
		t.Errorf("2CATAC stages %d not below HeRAD %d", c.Stages, h.Stages)
	}
}

// TestLatencyHonoursWorkers: the latency campaign plans on the pool its
// Campaign asks for, which the planbatch.workers gauge reports (the pool
// never exceeds the campaign's 20 requests).
func TestLatencyHonoursWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	want := min(runtime.GOMAXPROCS(0)+1, 20)
	if _, err := Latency(Campaign{Workers: want, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "planbatch.workers" && s.Value != float64(want) {
			t.Errorf("planbatch.workers = %v, want %d", s.Value, want)
		}
	}
}
