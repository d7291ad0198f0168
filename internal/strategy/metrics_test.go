package strategy

import (
	"math/rand"
	"strings"
	"testing"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/fertac"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/otac"
	"ampsched/internal/twocatac"
)

// TestEveryStrategyEmitsSeries pins the observability contract: every
// registered strategy (hidden ones included) reports at least the three
// common series — schedule.calls, schedule.empty, schedule.ns — plus at
// least one algorithm-specific series, all under its slug prefix.
func TestEveryStrategyEmitsSeries(t *testing.T) {
	c := testChain(t)
	r := core.Res(2, 2)
	for _, s := range AllRegistered() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			reg := obs.NewRegistry()
			sol := s.Schedule(c, r, Options{Metrics: reg})
			if sol.IsEmpty() {
				t.Fatalf("%s found no schedule", s.Name())
			}
			prefix := obs.Slug(s.Name()) + "."
			byName := map[string]obs.Sample{}
			for _, sample := range reg.Snapshot() {
				if !strings.HasPrefix(sample.Name, prefix) {
					t.Errorf("series %q outside the strategy scope %q", sample.Name, prefix)
					continue
				}
				byName[sample.Name] = sample
			}
			if len(byName) < 4 {
				t.Errorf("%d series, want >= 4 (3 common + algorithm-specific): %v",
					len(byName), byName)
			}
			if got := byName[prefix+"schedule.calls"].Count; got != 1 {
				t.Errorf("schedule.calls = %d, want 1", got)
			}
			if _, ok := byName[prefix+"schedule.empty"]; !ok {
				t.Error("schedule.empty not registered")
			}
			if ns := byName[prefix+"schedule.ns"]; ns.Count != 1 || ns.TotalNs <= 0 {
				t.Errorf("schedule.ns = %+v, want one positive observation", ns)
			}
		})
	}
}

// TestMetricsDoNotChangeSolutions pins that the instrumented paths are
// behavior-preserving: with and without a registry, every strategy
// returns the identical schedule.
func TestMetricsDoNotChangeSolutions(t *testing.T) {
	c := testChain(t)
	for _, r := range []core.Resources{core.Res(1, 0), core.Res(2, 2), core.Res(4, 4)} {
		for _, s := range AllRegistered() {
			plain := s.Schedule(c, r, Options{})
			obsd := s.Schedule(c, r, Options{Metrics: obs.NewRegistry()})
			if plain.String() != obsd.String() {
				t.Errorf("%s on R=%v: plain %v, instrumented %v", s.Name(), r, plain, obsd)
			}
		}
	}
}

// TestPlanBatchMetricsConcurrent shares one registry across a pooled
// PlanBatch run — the -race companion for concurrent metric updates —
// and pins that order-independent counter sums make the pooled counters
// equal the serial ones.
func TestPlanBatchMetricsConcurrent(t *testing.T) {
	counters := func(workers int) map[string]int64 {
		reg := obs.NewRegistry()
		reqs := batchRequests(t, 8)
		for i := range reqs {
			reqs[i].Options.Metrics = reg
		}
		res := PlanBatch(reqs, workers)
		for i := range res {
			if res[i].Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, res[i].Err)
			}
		}
		out := map[string]int64{}
		for _, s := range reg.Snapshot() {
			if s.Kind == obs.KindCounter {
				out[s.Name] = s.Count
			}
		}
		return out
	}
	serial := counters(1)
	pooled := counters(8)
	if len(serial) == 0 {
		t.Fatal("no counter series collected")
	}
	if len(pooled) != len(serial) {
		t.Fatalf("pooled run registered %d counters, serial %d", len(pooled), len(serial))
	}
	for name, want := range serial {
		if got := pooled[name]; got != want {
			t.Errorf("%s: pooled %d, serial %d", name, got, want)
		}
	}
	if serial["planbatch.requests"] == 0 {
		t.Error("planbatch.requests not collected")
	}
	if serial["planbatch.batches"] != 1 {
		t.Errorf("planbatch.batches = %d, want 1", serial["planbatch.batches"])
	}
}

// TestAdapterAllocsMatchDirectCall pins that nil sinks really are the off
// switch: with Options{}, every adapter allocates exactly what its
// algorithm package's own entry point allocates, so the observed path an
// adapter always runs costs nothing when nothing observes it.
func TestAdapterAllocsMatchDirectCall(t *testing.T) {
	c := chaingen.Generate(chaingen.Default(20, 0.5), rand.New(rand.NewSource(1)))
	r := core.Res(10, 10)
	small, rs := testChain(t), core.Res(2, 2) // brute force stays tractable
	direct := map[string]func(){
		"HeRAD":    func() { herad.Schedule(c, r) },
		"2CATAC":   func() { twocatac.Schedule(c, r) },
		"FERTAC":   func() { fertac.Schedule(c, r) },
		"OTAC (B)": func() { otac.Schedule(c, r.Count(core.Big), core.Big) },
		"OTAC (L)": func() { otac.Schedule(c, r.Count(core.Little), core.Little) },
		"Brute":    func() { brute.Schedule(small, rs) },
	}
	for _, s := range AllRegistered() {
		call, ok := direct[s.Name()]
		if !ok {
			t.Errorf("%s has no direct entry point in this test", s.Name())
			continue
		}
		cc, rr := c, r
		if s.Name() == "Brute" {
			cc, rr = small, rs
		}
		want := testing.AllocsPerRun(5, call)
		if got := testing.AllocsPerRun(5, func() { s.Schedule(cc, rr, Options{}) }); got != want {
			t.Errorf("%s: adapter allocates %v per schedule, entry point %v", s.Name(), got, want)
		}
	}
}

// TestDisabledMetricsAllocateNothing pins that resolving a strategy's
// metric scope from empty Options performs no allocation — the branch
// every Schedule call takes when no registry is supplied.
func TestDisabledMetricsAllocateNothing(t *testing.T) {
	o := Options{}
	if n := testing.AllocsPerRun(100, func() {
		if o.scope("HeRAD") != nil {
			t.Fatal("nil registry produced a scope")
		}
	}); n != 0 {
		t.Errorf("disabled metric scoping allocates %v per schedule", n)
	}
}
