package desim

import (
	"math"
	"strconv"

	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
)

// Sim-clock sampling: the simulator's analogue of streampu's live
// Sampler. Because the simulation is a deterministic frame-indexed DP,
// sampling is a pure post-pass over the recorded start/depart/service
// arrays — windows are cut on the *simulated* clock, never the wall
// clock, so every run of the same config produces bit-identical series,
// histograms and flight events. A WeightStep injects a mid-stream weight
// change, and the sample pass replays it into obs and the flight
// recorder, where the golden dump pins it byte for byte.

// WeightStep perturbs one stage's service time mid-stream: from frame
// AfterFrame on, stage Stage's per-frame service time is multiplied by
// Factor. Use it to model a platform slowdown (Factor > 1) or speedup
// (Factor < 1) that the planner did not anticipate.
type WeightStep struct {
	AfterFrame int
	Stage      int
	Factor     float64
}

// SampleConfig enables deterministic sim-clock sampling of a run.
type SampleConfig struct {
	// Every is the sampling window width in the weight unit (µs). 0 picks
	// makespan/16.
	Every float64
	// Metrics receives "desim.occupancy.stageN" / "desim.weight.stageN"
	// series (one point per window, tick = window index) and the
	// "desim.latency_us" end-to-end latency histogram. May be nil.
	Metrics *obs.Registry
	// Flight, when non-nil, receives the run's flight events on the sim
	// clock: one CodeFault per configured WeightStep (tick = AfterFrame,
	// stage = the perturbed stage, A = factor), then one CodeWindow per
	// (window, stage) with frames in the window (tick = window index,
	// A = occupancy, B = windowed weight estimate) in window-major order.
	// Everything is driven by the simulated clock, so dumps of identical
	// configs are bit-identical — the golden-test contract.
	Flight *flight.Recorder
}

// samplePass cuts the simulated timeline into fixed windows and emits
// per-window per-stage occupancy and weight estimates plus the
// end-to-end latency histogram. A frame's service time is attributed to
// the window its stage departure falls in. Returns the number of windows
// emitted.
func samplePass(cfg Config, replicas []int, svc, start, depart [][]float64, makespan float64) int {
	s := cfg.Sample
	every := s.Every
	if every <= 0 {
		every = makespan / 16
	}
	if every <= 0 || makespan <= 0 {
		return 0
	}
	m := len(svc)
	nWin := int(makespan/every) + 1

	busy := make([][]float64, m)
	count := make([][]int64, m)
	for i := 0; i < m; i++ {
		busy[i] = make([]float64, nWin)
		count[i] = make([]int64, nWin)
		for k := 0; k < cfg.Frames; k++ {
			w := int(depart[i][k] / every)
			if w >= nWin {
				w = nWin - 1
			}
			busy[i][w] += svc[i][k]
			count[i][w]++
		}
	}

	// Each stage's two series are resolved once; nil ones (no registry)
	// drop their appends.
	occSeries, weightSeries := make([]*obs.Series, m), make([]*obs.Series, m)
	if s.Metrics != nil {
		lh := s.Metrics.LogHistogram("desim.latency_us")
		for k := 0; k < cfg.Frames; k++ {
			lh.Observe(depart[m-1][k] - start[0][k])
		}
		for i := range occSeries {
			n := strconv.Itoa(i)
			occSeries[i] = s.Metrics.Series("desim.occupancy.stage" + n)
			weightSeries[i] = s.Metrics.Series("desim.weight.stage" + n)
		}
	}

	// Faults first: the injected weight steps are the run's ground truth,
	// so a flight dump reads cause (fault) before effect (window).
	for _, stp := range cfg.Steps {
		s.Flight.Record(flight.Event{
			Code:  flight.CodeFault,
			Tick:  int64(stp.AfterFrame),
			Stage: int32(stp.Stage),
			A:     stp.Factor,
		})
	}

	for w := 0; w < nWin; w++ {
		width := every
		if end := float64(w+1) * every; end > makespan {
			width = makespan - float64(w)*every
		}
		for i := 0; i < m; i++ {
			est := 0.0
			if count[i][w] > 0 {
				est = busy[i][w] / float64(count[i][w])
			}
			occ := 0.0
			if width > 0 {
				occ = math.Min(1, busy[i][w]/(width*float64(replicas[i])))
			}
			occSeries[i].Append(int64(w), occ)
			if count[i][w] > 0 {
				weightSeries[i].Append(int64(w), est)
				s.Flight.Record(flight.Event{
					Code:  flight.CodeWindow,
					Tick:  int64(w),
					Stage: int32(i),
					A:     occ,
					B:     est,
				})
			}
		}
	}
	return nWin
}
