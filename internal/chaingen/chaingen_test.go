package chaingen

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ampsched/internal/core"
)

func TestConfigValidate(t *testing.T) {
	good := Default(20, 0.5)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{N: 0, WMin: 1, WMax: 10, SlowMin: 1, SlowMax: 2, StatelessRatio: 0.5},
		{N: 5, WMin: -1, WMax: 10, SlowMin: 1, SlowMax: 2, StatelessRatio: 0.5},
		{N: 5, WMin: 10, WMax: 1, SlowMin: 1, SlowMax: 2, StatelessRatio: 0.5},
		{N: 5, WMin: 1, WMax: 10, SlowMin: 0.5, SlowMax: 2, StatelessRatio: 0.5},
		{N: 5, WMin: 1, WMax: 10, SlowMin: 3, SlowMax: 2, StatelessRatio: 0.5},
		{N: 5, WMin: 1, WMax: 10, SlowMin: 1, SlowMax: 2, StatelessRatio: 1.5},
		{N: 5, WMin: 1, WMax: 10, SlowMin: 1, SlowMax: 2, StatelessRatio: -0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate with invalid config should panic")
		}
	}()
	Generate(Config{}, rand.New(rand.NewSource(1)))
}

func TestGenerateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 1 + rng.Intn(40)
		sr := rng.Float64()
		cfg := Default(n, sr)
		c := Generate(cfg, rng)
		if c.Len() != n {
			return false
		}
		repCount := 0
		for i := 0; i < n; i++ {
			tk := c.Task(i)
			wb, wl := tk.W(core.Big), tk.W(core.Little)
			if wb < 1 || wb > 100 || wb != math.Trunc(wb) {
				t.Logf("big weight %v outside integer [1,100]", wb)
				return false
			}
			if wl < wb || wl > 5*wb || wl != math.Trunc(wl) {
				t.Logf("little weight %v outside [wb, 5wb] for wb=%v", wl, wb)
				return false
			}
			if tk.Replicable {
				repCount++
			}
		}
		want := int(math.Round(sr * float64(n)))
		return repCount == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGenerateManyDeterministic(t *testing.T) {
	a := GenerateMany(Default(20, 0.5), 42, 5)
	b := GenerateMany(Default(20, 0.5), 42, 5)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		for j := 0; j < a[i].Len(); j++ {
			if !sameTask(a[i].Task(j), b[i].Task(j)) {
				t.Fatalf("chain %d task %d differs across identical seeds", i, j)
			}
		}
	}
	c := GenerateMany(Default(20, 0.5), 43, 5)
	same := true
	for j := 0; j < a[0].Len(); j++ {
		if !sameTask(a[0].Task(j), c[0].Task(j)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical first chains")
	}
}

func TestStatelessRatioExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c0 := Generate(Default(15, 0), rng)
	if n := seqCount(c0); n != 15 {
		t.Errorf("SR=0: %d sequential tasks, want 15", n)
	}
	c1 := Generate(Default(15, 1), rng)
	if n := seqCount(c1); n != 0 {
		t.Errorf("SR=1: %d sequential tasks, want 0", n)
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

// sameTask compares tasks by value now that Weight is a slice.
func sameTask(a, b core.Task) bool {
	return a.Name == b.Name && a.Replicable == b.Replicable && slices.Equal(a.Weight, b.Weight)
}

func TestDefault3(t *testing.T) {
	cfg := Default3(20, 0.5)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	c := Generate(cfg, rng)
	if c.NumTypes() != 3 {
		t.Fatalf("NumTypes = %d, want 3", c.NumTypes())
	}
	for j := 0; j < c.Len(); j++ {
		tk := c.Task(j)
		wb, wl, wm := tk.W(core.Big), tk.W(core.Little), tk.W(2)
		if wb < 1 || wb > 100 {
			t.Errorf("task %d big weight %v outside [1,100]", j, wb)
		}
		// The medium type's slowdown interval [1,3] sits inside little's [1,5].
		if wm < wb || wm > 3*wb+1 {
			t.Errorf("task %d medium weight %v outside [%v,%v]", j, wm, wb, 3*wb+1)
		}
		if wl < wb {
			t.Errorf("task %d little weight %v below big %v", j, wl, wb)
		}
	}
	// Same seed, same chain — the extra type does not break determinism.
	c2 := Generate(cfg, rand.New(rand.NewSource(7)))
	for j := 0; j < c.Len(); j++ {
		if !sameTask(c.Task(j), c2.Task(j)) {
			t.Fatalf("task %d differs across identical seeds", j)
		}
	}
	// The replicable positions and the first task's two canonical weights
	// match the two-type profile for the same seed: the extra draws are
	// appended after the canonical ones.
	c2t := Generate(Default(20, 0.5), rand.New(rand.NewSource(7)))
	t0, t0b := c.Task(0), c2t.Task(0)
	if t0.W(core.Big) != t0b.W(core.Big) || t0.W(core.Little) != t0b.W(core.Little) ||
		t0.Replicable != t0b.Replicable {
		t.Errorf("task 0 canonical draws diverged: 3-type %v/%v, 2-type %v/%v",
			t0.W(core.Big), t0.W(core.Little), t0b.W(core.Big), t0b.W(core.Little))
	}
}

func TestValidateExtra(t *testing.T) {
	cfg := Default(5, 0.5)
	cfg.Extra = []SlowdownRange{{Min: 0, Max: 2}}
	if err := cfg.Validate(); err == nil {
		t.Error("non-positive extra slowdown accepted")
	}
	cfg.Extra = []SlowdownRange{{Min: 3, Max: 2}}
	if err := cfg.Validate(); err == nil {
		t.Error("inverted extra slowdown interval accepted")
	}
	cfg.Extra = make([]SlowdownRange, core.MaxCoreTypes-1)
	for i := range cfg.Extra {
		cfg.Extra[i] = SlowdownRange{Min: 1, Max: 2}
	}
	if err := cfg.Validate(); err == nil {
		t.Error("too many extra types accepted")
	}
}
