// Package desim is a deterministic discrete-event simulator for
// pipelined-and-replicated task-chain schedules. It executes a schedule
// frame by frame with per-stage worker pools, round-robin frame dispatch
// (frame k runs on replica k mod r, preserving frame order like StreamPU's
// adaptors), and optional finite inter-stage buffers with
// blocking-after-service semantics. It reports the steady-state period,
// the mean end-to-end latency and the makespan, independently of wall
// time, and is used to predict the "Sim" throughput columns of Table II.
package desim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ampsched/internal/core"
	"ampsched/internal/obs"
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
	// Sample is accepted and ignored; it is kept only because bench/
	// sets it (ROADMAP item 1(g)).
	Sample *SampleConfig
}

// WeightStep perturbs one stage's service time mid-stream: from frame
// AfterFrame on, stage Stage's per-frame service time is multiplied by
// Factor. Use it to model a platform slowdown (Factor > 1) or speedup
// (Factor < 1) that the planner did not anticipate.
type WeightStep struct {
	AfterFrame int
	Stage      int
	Factor     float64
}

// SampleConfig is the shape bench/ passes as Config.Sample; nothing
// reads it. Windowed occupancy is streampu.Sampler's.
type SampleConfig struct {
	Metrics *obs.Registry
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
	// Frames is the number of simulated frames.
	Frames int
}

// Throughput converts the simulated period into frames per second given
// task weights expressed in microseconds and the platform's interframe
// level (frames per pipeline slot).
func (r Result) Throughput(interframe int) float64 {
	return core.Throughput(r.Period, interframe)
}

// stage is what the recurrence keeps of one stage: the departures of its
// last len(depart) frames, frame k's in slot k mod len(depart), and the
// start and service time of the frame in flight.
type stage struct {
	depart              []float64
	at, replicas        int // at: slot of the frame in flight
	service, start, svc float64
}

// arrival is when stage i can start frame k: stage i-1 has handed it off
// and replica k mod r_i has handed off frame k-r_i (blocking after
// service: a worker holds its frame until handoff).
func arrival(st []stage, i, k int) float64 {
	arr := 0.0
	if i > 0 {
		arr = st[i-1].depart[st[i-1].at]
	}
	if s := &st[i]; k >= s.replicas {
		if w := s.departed(s.replicas); w > arr {
			arr = w
		}
	}
	return arr
}

// departed returns the departure of the frame d < len(s.depart) frames
// before the one in flight.
func (s *stage) departed(d int) float64 {
	p := s.at - d
	if p < 0 {
		p += len(s.depart)
	}
	return s.depart[p]
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

	// Stage i reads its own departure of frame k-r_i and, with finite
	// buffers, stage i+1's of frame k-QueueCap-r_{i+1}, so each stage
	// keeps its last QueueCap+r_i+1 departures.
	m := len(sol.Stages)
	st := make([]stage, m)
	for i, s := range sol.Stages {
		st[i] = stage{depart: make([]float64, cfg.QueueCap+s.Cores+1), replicas: s.Cores, service: c.SumW(s.Start, s.End, s.Type)}
	}

	warmup := max(1, cfg.Frames/4)
	last := &st[m-1]
	var warm, dep, lat float64
	for k := 0; k < cfg.Frames; k++ {
		for i := range st {
			s := &st[i]
			s.start = arrival(st, i, k)
			s.svc = s.service
			for _, stp := range cfg.Steps {
				if stp.Stage == i && k >= stp.AfterFrame {
					s.svc *= stp.Factor
				}
			}
			if jitterRng != nil {
				s.svc *= 1 + cfg.Jitter*(2*jitterRng.Float64()-1)
			}
			s.depart[s.at] = s.start + s.svc
		}
		// Backpressure pass: with finite buffers, frame k cannot leave
		// stage i until stage i+1 has a free input slot, which happens
		// when frame k-QueueCap-r_{i+1} has departed stage i+1.
		if cfg.QueueCap > 0 {
			for i := m - 2; i >= 0; i-- {
				if next := &st[i+1]; k >= cfg.QueueCap+next.replicas {
					if w := next.departed(cfg.QueueCap + next.replicas); w > st[i].depart[st[i].at] {
						st[i].depart[st[i].at] = w
					}
				}
			}
			// Re-propagate delayed handoffs downstream once; with
			// deterministic service times a single forward fix-up after
			// the backward pass restores consistency for frame k.
			for i := 1; i < m; i++ {
				if s, arr := &st[i], arrival(st, i, k); arr > s.start {
					s.start = arr
					if f := s.start + s.svc; f > s.depart[s.at] {
						s.depart[s.at] = f
					}
				}
			}
		}

		dep = last.depart[last.at]
		if k == warmup-1 {
			warm = dep
		} else if k >= warmup {
			lat += dep - st[0].start // frame k was created when stage 0 took it
		}
		for i := range st {
			if st[i].at++; st[i].at == len(st[i].depart) {
				st[i].at = 0
			}
		}
	}
	return Result{
		Period:   (dep - warm) / float64(cfg.Frames-warmup),
		Latency:  lat / float64(cfg.Frames-warmup),
		Makespan: dep,
		Frames:   cfg.Frames,
	}, nil
}

// PredictPeriod returns the analytic steady-state period of a schedule:
// the maximum stage weight (Eq. 2). Simulate should converge to this value
// for any queue capacity ≥ 1; tests assert the equivalence.
func PredictPeriod(c *core.Chain, sol core.Solution) float64 {
	return sol.Period(c)
}
