package desim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/platform"
	"ampsched/internal/strategy"
)

// referenceSimulate is the full-matrix recurrence Simulate replaced: it
// keeps the start, departure and service time of every frame at every
// stage. cfg must be one Simulate accepted, with Frames already set.
func referenceSimulate(c *core.Chain, sol core.Solution, cfg Config) Result {
	var jitterRng *rand.Rand
	if cfg.Jitter > 0 {
		seed := cfg.Seed
		if seed == 0 {
			seed = 0x5EED
		}
		jitterRng = rand.New(rand.NewSource(seed))
	}
	m := len(sol.Stages)
	service := make([]float64, m)
	replicas := make([]int, m)
	for i, st := range sol.Stages {
		service[i] = c.SumW(st.Start, st.End, st.Type)
		replicas[i] = st.Cores
	}
	start := make([][]float64, m)
	depart := make([][]float64, m)
	svcArr := make([][]float64, m)
	for i := range start {
		start[i] = make([]float64, cfg.Frames)
		depart[i] = make([]float64, cfg.Frames)
		svcArr[i] = make([]float64, cfg.Frames)
	}
	for k := 0; k < cfg.Frames; k++ {
		for i := 0; i < m; i++ {
			arr := 0.0
			if i > 0 {
				arr = depart[i-1][k]
			}
			if prev := k - replicas[i]; prev >= 0 {
				if w := depart[i][prev]; w > arr {
					arr = w
				}
			}
			start[i][k] = arr
			svc := service[i]
			for _, stp := range cfg.Steps {
				if stp.Stage == i && k >= stp.AfterFrame {
					svc *= stp.Factor
				}
			}
			if jitterRng != nil {
				svc *= 1 + cfg.Jitter*(2*jitterRng.Float64()-1)
			}
			svcArr[i][k] = svc
			fin := arr + svc
			depart[i][k] = fin
		}
		if cfg.QueueCap > 0 {
			for i := m - 2; i >= 0; i-- {
				blockAt := k - cfg.QueueCap - replicas[i+1]
				if blockAt >= 0 && depart[i+1][blockAt] > depart[i][k] {
					depart[i][k] = depart[i+1][blockAt]
				}
			}
			for i := 1; i < m; i++ {
				arr := depart[i-1][k]
				if prev := k - replicas[i]; prev >= 0 && depart[i][prev] > arr {
					arr = depart[i][prev]
				}
				if arr > start[i][k] {
					start[i][k] = arr
					if f := arr + svcArr[i][k]; f > depart[i][k] {
						depart[i][k] = f
					}
				}
			}
		}
	}
	last := depart[m-1]
	res := Result{Makespan: last[cfg.Frames-1], Frames: cfg.Frames}
	warmup := max(1, cfg.Frames/4)
	span := last[cfg.Frames-1] - last[warmup-1]
	res.Period = span / float64(cfg.Frames-warmup)
	lat := 0.0
	for k := warmup; k < cfg.Frames; k++ {
		lat += last[k] - start[0][k]
	}
	res.Latency = lat / float64(cfg.Frames-warmup)
	return res
}

// randomChain draws a chain of 1–20 tasks from chaingen and a platform of
// 1–6 cores of each type.
func randomChain(rng *rand.Rand) (*core.Chain, core.Resources) {
	c := chaingen.Generate(chaingen.Default(1+rng.Intn(20), rng.Float64()), rng)
	return c, core.Res(1+rng.Intn(6), 1+rng.Intn(6))
}

// checkMatchesReference simulates sol under cfg with Simulate and with
// referenceSimulate and fails unless Period, Latency and Makespan agree
// bit for bit.
func checkMatchesReference(t *testing.T, c *core.Chain, sol core.Solution, cfg Config) {
	t.Helper()
	got, err := Simulate(c, sol, cfg)
	if err != nil {
		t.Fatalf("sol %v, cfg %+v: %v", sol, cfg, err)
	}
	want := referenceSimulate(c, sol, cfg)
	for _, f := range []struct {
		name      string
		got, want float64
	}{{"Period", got.Period, want.Period}, {"Latency", got.Latency, want.Latency}, {"Makespan", got.Makespan, want.Makespan}} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("sol %v, cfg %+v: %s = %v, reference %v", sol, cfg, f.name, f.got, f.want)
		}
	}
}

// TestSimulateMatchesReference holds Simulate to the full-matrix
// recurrence on schedules of every strategy, with QueueCap 0–3, 2–600
// frames, and with and without jitter and weight steps.
func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cases := 0
	for cases < 2000 {
		c, r := randomChain(rng)
		for _, s := range strategy.All() {
			sol := s.Schedule(c, r, strategy.Options{})
			if sol.IsEmpty() {
				continue
			}
			cfg := Config{Frames: 2 + rng.Intn(599), QueueCap: rng.Intn(4)}
			if rng.Intn(2) == 0 {
				cfg.Jitter, cfg.Seed = 0.5*rng.Float64(), rng.Int63n(3)
			}
			for n := rng.Intn(3); n > 0; n-- {
				cfg.Steps = append(cfg.Steps, WeightStep{
					AfterFrame: rng.Intn(cfg.Frames), Stage: rng.Intn(len(sol.Stages)), Factor: 0.25 + 4*rng.Float64(),
				})
			}
			checkMatchesReference(t, c, sol, cfg)
			cases++
		}
	}
}

// FuzzSimulateMatchesReference lets the fuzzer pick the chain and
// strategy (through seed), the run length, the queue capacity, the jitter
// and one weight step.
func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(2), uint8(0), uint16(0), uint8(0))
	f.Add(int64(7), uint16(50), uint8(1), uint8(20), uint16(10), uint8(64))
	f.Add(int64(12), uint16(599), uint8(3), uint8(99), uint16(400), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, frames uint16, qcap, jitter uint8, stepAt uint16, factor uint8) {
		rng := rand.New(rand.NewSource(seed))
		c, r := randomChain(rng)
		all := strategy.All()
		sol := all[rng.Intn(len(all))].Schedule(c, r, strategy.Options{})
		if sol.IsEmpty() {
			return
		}
		cfg := Config{Frames: 2 + int(frames%599), QueueCap: int(qcap % 4), Jitter: float64(jitter%100) / 100, Seed: seed}
		if factor > 0 {
			cfg.Steps = []WeightStep{{AfterFrame: int(stepAt) % cfg.Frames, Stage: rng.Intn(len(sol.Stages)), Factor: float64(factor) / 32}}
		}
		checkMatchesReference(t, c, sol, cfg)
	})
}

// TestSimulateAllocsFlat pins that a run's allocation does not grow with
// its length: the same count at 300 and 30 000 frames, and at most 4 KB
// per call on each Table II schedule HeRAD plans.
func TestSimulateAllocsFlat(t *testing.T) {
	for _, p := range []*platform.Platform{platform.MacStudio(), platform.X7Ti()} {
		c := p.Chain()
		for _, r := range p.Configs() {
			sol := herad.Schedule(c, r)
			allocs := func(frames int) float64 {
				return testing.AllocsPerRun(20, func() { Simulate(c, sol, Config{Frames: frames, QueueCap: 2}) })
			}
			if short, long := allocs(300), allocs(30000); short != long {
				t.Errorf("%s %v: %v allocations at 300 frames, %v at 30 000", p.Name, r, short, long)
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				Simulate(c, sol, Config{Frames: 3000, QueueCap: 2})
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 4096 {
				t.Errorf("%s %v: %d bytes per Simulate, want at most 4 KB", p.Name, r, b)
			}
		}
	}
}
