package strategy

import (
	"math/rand"
	"strings"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/obs"
)

func testChain(t testing.TB) *core.Chain {
	t.Helper()
	return core.MustChain([]core.Task{
		{Name: "a", Weight: core.Weights(40, 90), Replicable: false},
		{Name: "b", Weight: core.Weights(120, 300), Replicable: true},
		{Name: "c", Weight: core.Weights(200, 520), Replicable: true},
		{Name: "d", Weight: core.Weights(310, 700), Replicable: true},
		{Name: "e", Weight: core.Weights(25, 60), Replicable: false},
	})
}

// names returns the canonical names of All().
func names() []string {
	var out []string
	for _, s := range All() {
		out = append(out, s.Name())
	}
	return out
}

func TestAllOrder(t *testing.T) {
	want := []string{"HeRAD", "2CATAC", "FERTAC", "OTAC (B)", "OTAC (L)"}
	got := names()
	if len(got) != len(want) {
		t.Fatalf("names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The hidden reference appears in AllRegistered but not in All.
	reg := AllRegistered()
	if len(reg) != len(want)+1 {
		t.Errorf("AllRegistered() has %d entries, want %d", len(reg), len(want)+1)
	}
	for _, s := range All() {
		if s.Name() == "Brute" {
			t.Errorf("hidden strategy %q leaked into All()", s.Name())
		}
	}
}

func TestParseAliases(t *testing.T) {
	for in, want := range map[string]string{
		"herad":       "HeRAD",
		"HeRAD":       "HeRAD",
		"  HERAD  ":   "HeRAD",
		"2catac":      "2CATAC",
		"twocatac":    "2CATAC",
		"2CATAC":      "2CATAC",
		"fertac":      "FERTAC",
		"otac (b)":    "OTAC (B)",
		"otac-b":      "OTAC (B)",
		"OTACB":       "OTAC (B)",
		"otac-l":      "OTAC (L)",
		"otacl":       "OTAC (L)",
		"brute":       "Brute",
		"brute-force": "Brute",
		"exhaustive":  "Brute",
	} {
		s, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", in, s.Name(), want)
		}
	}
}

func TestParseUnknown(t *testing.T) {
	_, err := Parse("banana")
	if err == nil {
		t.Fatal("Parse accepted unknown name")
	}
	msg := err.Error()
	for _, frag := range []string{"banana", "HeRAD", "2CATAC", "otac-b", "brute"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q does not mention %q", msg, frag)
		}
	}
	if _, ok := Get("banana"); ok {
		t.Error("Get resolved unknown name")
	}
	// "all" is reserved for sweeps, not a strategy name.
	if _, ok := Get("all"); ok {
		t.Error(`Get resolved reserved name "all"`)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on unknown name")
		}
	}()
	MustParse("banana")
}

// TestRegistryNamesUnique keeps the strategy table unambiguous: Get
// compares aliases to the normalized input, so each alias must already be
// normalized, and no canonical name or alias may appear twice or shadow the
// reserved sweep name "all".
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, e := range registry {
		for _, a := range e.aliases {
			if a != normalize(a) {
				t.Errorf("%s: alias %q is not normalized", e.name, a)
			}
		}
		for _, name := range append([]string{e.name}, e.aliases...) {
			k := normalize(name)
			if k == "" || k == "all" {
				t.Errorf("%s: reserved or empty name %q", e.name, name)
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("%q names both %s and %s", name, prev, e.name)
			}
			seen[k] = e.name
		}
	}
}

func TestScheduleDegenerateInputs(t *testing.T) {
	c := testChain(t)
	for _, s := range AllRegistered() {
		if got := s.Schedule(c, core.Resources{}, Options{}); !got.IsEmpty() {
			t.Errorf("%s scheduled on zero resources: %v", s.Name(), got)
		}
		if got := s.Schedule(nil, core.Res(2, 0), Options{}); !got.IsEmpty() {
			t.Errorf("%s scheduled a nil chain: %v", s.Name(), got)
		}
	}
}

func TestOptionsColocate(t *testing.T) {
	c := testChain(t)
	r := core.Res(2, 4)
	for _, s := range All() {
		plain := s.Schedule(c, r, Options{})
		fused := s.Schedule(c, r, Options{Colocate: true})
		if plain.IsEmpty() || fused.IsEmpty() {
			t.Fatalf("%s returned empty solution", s.Name())
		}
		if got, want := fused.Period(c), plain.Period(c); got > want*(1+1e-12) {
			t.Errorf("%s: colocation changed period %v -> %v", s.Name(), want, got)
		}
		if len(fused.Stages) > len(plain.Stages) {
			t.Errorf("%s: colocation grew pipeline %d -> %d stages",
				s.Name(), len(plain.Stages), len(fused.Stages))
		}
		if err := fused.Validate(c, r); err != nil {
			t.Errorf("%s colocated schedule invalid: %v", s.Name(), err)
		}
	}
}

// TestCrossStrategyProperties is the registry-driven property test: on
// random small chains, every registered strategy must produce a valid
// schedule, HeRAD must match the brute-force optimum, and no heuristic may
// beat it.
func TestCrossStrategyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	herad := MustParse("herad")
	resources := []core.Resources{
		core.Res(1, 1), core.Res(2, 1), core.Res(1, 3), core.Res(3, 3),
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6) // 2..7 tasks: brute-force stays tractable
		sr := float64(rng.Intn(11)) / 10
		c := chaingen.Generate(chaingen.Default(n, sr), rng)
		r := resources[rng.Intn(len(resources))]
		checkChainProperties(t, c, r, herad)
		if t.Failed() {
			t.Fatalf("trial %d: n=%d sr=%.1f R=%v", trial, n, sr, r)
		}
	}
}

func checkChainProperties(t *testing.T, c *core.Chain, r core.Resources, herad Scheduler) {
	t.Helper()
	opt := MustParse("brute").Schedule(c, r, Options{}).Period(c)
	hp := herad.Schedule(c, r, Options{}).Period(c)
	if diff := hp - opt; diff > 1e-9*opt {
		t.Errorf("HeRAD period %v > brute optimum %v", hp, opt)
	}
	for _, s := range AllRegistered() {
		sol := s.Schedule(c, r, Options{})
		if sol.IsEmpty() {
			t.Errorf("%s found no schedule", s.Name())
			continue
		}
		if err := sol.Validate(c, r); err != nil {
			t.Errorf("%s produced invalid schedule %v: %v", s.Name(), sol, err)
		}
		if p := sol.Period(c); p < opt*(1-1e-9) {
			t.Errorf("%s period %v beats the optimum %v", s.Name(), p, opt)
		}
	}
}

// FuzzParse checks the parser never panics and resolves only known names.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"herad", "2CATAC", " otac-b ", "all", "", "brute", "banana"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := Parse(name)
		if (s == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v", name, s, err)
		}
		if err == nil {
			if _, ok := Get(name); !ok {
				t.Fatalf("Parse resolved %q but Get did not", name)
			}
		}
	})
}

func TestMetricsScope(t *testing.T) {
	reg := obs.NewRegistry()
	sc := MustParse("herad")
	scoped := MetricsScope(sc, reg)
	if scoped == nil {
		t.Fatal("MetricsScope returned nil for a live registry")
	}
	scoped.Counter("runtime.frames").Add(1)
	if got := reg.Counter("herad.runtime.frames").Value(); got != 1 {
		t.Errorf("scoped counter did not land under the strategy slug: %d", got)
	}
	if MetricsScope(sc, nil) != nil {
		t.Error("nil registry not propagated")
	}
	if MetricsScope(nil, reg) != nil {
		t.Error("nil scheduler not propagated")
	}
}

// AllRegistered returns every strategy of the table, hidden ones included,
// in table order.
func AllRegistered() []Scheduler {
	out := make([]Scheduler, len(registry))
	for i, b := range registry {
		out[i] = b
	}
	return out
}
