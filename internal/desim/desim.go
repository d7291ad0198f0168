// Package desim is a deterministic discrete-event simulator for
// pipelined-and-replicated task-chain schedules. It executes a schedule
// frame by frame with per-stage worker pools, round-robin frame dispatch
// (frame k runs on replica k mod r, preserving frame order like StreamPU's
// adaptors), and optional finite inter-stage buffers with
// blocking-after-service semantics. It reports the steady-state period,
// end-to-end latency and per-stage utilization, independently of wall
// time, and is used to predict the "Sim" throughput columns of Table II.
package desim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ampsched/internal/core"
)

// Config parameterizes a simulation run.
type Config struct {
	// Frames is the number of frames pushed through the pipeline; 0
	// selects 2000, and 1 or a negative count is rejected (a period needs
	// two departures).
	// The first max(1, Frames/4) departures are warm-up, excluded from
	// the steady-state period and latency.
	Frames int
	// QueueCap is the capacity (in frames) of each stage's input buffer;
	// 0 means unbounded. Finite buffers exert backpressure on upstream
	// stages (blocking after service).
	QueueCap int
	// Jitter adds per-frame service-time noise: each execution draws its
	// service time uniformly from [1−Jitter, 1+Jitter]·w. Real platforms
	// show exactly this kind of variance (the paper measures 0–19% gaps
	// between expected and achieved throughput); with jitter the
	// simulated period exceeds the analytic bound because a pipeline
	// cannot average away its slowest-stage excursions. 0 disables.
	Jitter float64
	// Seed seeds the jitter generator (0 uses a fixed default).
	Seed int64
	// Steps optionally perturb stage service times mid-stream (see
	// WeightStep) — the simulator's way to model a weight change the
	// planner did not anticipate.
	Steps []WeightStep
	// Sample, when set, enables deterministic sim-clock sampling: windowed
	// occupancy/weight series and an end-to-end latency histogram driven
	// purely by the simulated clock (see SampleConfig).
	Sample *SampleConfig
}

// Result summarizes one simulation.
type Result struct {
	// Period is the steady-state mean inter-departure time of frames at
	// the pipeline sink (same unit as the task weights).
	Period float64
	// Latency is the mean end-to-end frame latency after warm-up.
	Latency float64
	// Makespan is the departure time of the last frame.
	Makespan float64
	// StageService holds each stage's per-frame service time.
	StageService []float64
	// Frames is the number of simulated frames.
	Frames int
	// SamplesTaken is the number of sampling windows emitted (0 unless
	// Config.Sample was set).
	SamplesTaken int
}

// Throughput converts the simulated period into frames per second given
// task weights expressed in microseconds and the platform's interframe
// level (frames per pipeline slot).
func (r Result) Throughput(interframe int) float64 {
	return core.Throughput(r.Period, interframe)
}

// Simulate runs the schedule sol of chain c through the simulator. The
// solution must be structurally valid for some resource budget; resource
// limits themselves do not matter to the timing model (each stage owns its
// cores exclusively).
func Simulate(c *core.Chain, sol core.Solution, cfg Config) (Result, error) {
	if c == nil || c.Len() == 0 {
		return Result{}, errors.New("desim: empty chain")
	}
	if err := sol.Validate(c, core.Unlimited(c.NumTypes())); err != nil {
		return Result{}, fmt.Errorf("desim: invalid solution: %w", err)
	}
	if cfg.Frames == 0 {
		cfg.Frames = 2000
	}
	if cfg.Frames < 2 {
		return Result{}, fmt.Errorf("desim: Frames = %d, want >= 2 (a period needs two departures)", cfg.Frames)
	}
	if cfg.QueueCap < 0 {
		return Result{}, fmt.Errorf("desim: negative queue capacity %d", cfg.QueueCap)
	}
	if !(cfg.Jitter >= 0 && cfg.Jitter < 1) { // NaN included
		return Result{}, fmt.Errorf("desim: jitter %v outside [0,1)", cfg.Jitter)
	}
	for _, stp := range cfg.Steps {
		if stp.Stage < 0 || stp.Stage >= len(sol.Stages) {
			return Result{}, fmt.Errorf("desim: weight step targets stage %d of %d", stp.Stage, len(sol.Stages))
		}
		if !(stp.Factor > 0) || math.IsInf(stp.Factor, 1) {
			return Result{}, fmt.Errorf("desim: weight step factor %v, want finite and > 0", stp.Factor)
		}
	}
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

	// depart[i][k]: time frame k leaves stage i (service completed AND a
	// slot is free downstream). start[i][k]: time service begins.
	// Worker k mod r of stage i becomes free when frame k-r departs
	// (blocking after service: a worker holds its frame until handoff).
	start := make([][]float64, m)
	depart := make([][]float64, m)
	svcArr := make([][]float64, m) // actual per-frame service times
	for i := range start {
		start[i] = make([]float64, cfg.Frames)
		depart[i] = make([]float64, cfg.Frames)
		svcArr[i] = make([]float64, cfg.Frames)
	}

	for k := 0; k < cfg.Frames; k++ {
		for i := 0; i < m; i++ {
			// Arrival of frame k at stage i.
			arr := 0.0
			if i > 0 {
				arr = depart[i-1][k]
			}
			// The assigned worker must have handed off its previous frame.
			if prev := k - replicas[i]; prev >= 0 {
				if w := depart[i][prev]; w > arr {
					arr = w
				}
			}
			// Finite input buffer of stage i: frame k may only *enter*
			// stage i's queue when frame k-cap-r has started service.
			// This is enforced upstream at handoff time (see below), so
			// nothing extra is needed here.
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
		// Backpressure pass: with finite buffers, frame k cannot leave
		// stage i until stage i+1 has a free input slot, which happens
		// when frame k-QueueCap-replicas[i+1] has departed stage i+1.
		if cfg.QueueCap > 0 {
			for i := m - 2; i >= 0; i-- {
				blockAt := k - cfg.QueueCap - replicas[i+1]
				if blockAt >= 0 && depart[i+1][blockAt] > depart[i][k] {
					depart[i][k] = depart[i+1][blockAt]
				}
			}
			// Re-propagate delayed handoffs downstream once; with
			// deterministic service times a single forward fix-up after
			// the backward pass restores consistency for frame k.
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
	res := Result{
		Makespan:     last[cfg.Frames-1],
		StageService: service,
		Frames:       cfg.Frames,
	}
	warmup := max(1, cfg.Frames/4)
	span := last[cfg.Frames-1] - last[warmup-1]
	res.Period = span / float64(cfg.Frames-warmup)

	lat := 0.0
	for k := warmup; k < cfg.Frames; k++ {
		release := start[0][k] // frame k is created when stage 0 takes it
		lat += last[k] - release
	}
	res.Latency = lat / float64(cfg.Frames-warmup)

	if cfg.Sample != nil {
		res.SamplesTaken = samplePass(cfg, replicas, svcArr, start, depart, res.Makespan)
	}
	return res, nil
}

// PredictPeriod returns the analytic steady-state period of a schedule:
// the maximum stage weight (Eq. 2). Simulate should converge to this value
// for any queue capacity ≥ 1; tests assert the equivalence.
func PredictPeriod(c *core.Chain, sol core.Solution) float64 {
	return sol.Period(c)
}
