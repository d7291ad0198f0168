package streampu

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
)

// Live windowed sampling: where Tracer records the full timeline for
// offline analysis, a Sampler keeps only streaming aggregates — per-stage
// busy time, frame counts and log-bucketed latency histograms — cheap
// enough to update on every frame and to snapshot while the pipeline
// runs. Periodic Sample calls turn the aggregates into *windowed*
// occupancy and per-frame weight estimates (the live analogue of the
// planner's task weights) and publish the occupancy as one obs series
// per stage, resolved once per run. Frames per second is not published
// separately: it is the rate of the sink stage's latency-summary count.
// The record path is lock-free and allocation-free; Sample is serialized
// and is meant to be driven by a single goroutine (ampsched's -watch
// loop).

// StageSample is one stage's view in a Sample snapshot. Latency fields
// are in modeled µs (wall time de-scaled by Options.TimeScale), matching
// the task-weight unit the schedule was computed in.
type StageSample struct {
	// Stage is the pipeline stage index; Workers its replica count.
	Stage   int
	Workers int
	// Occupancy is the fraction of the sampling window the stage's
	// replicas spent busy (aggregate busy ÷ (window × workers)).
	Occupancy float64
	// WeightEstimate is the mean per-frame service time over the window in
	// modeled µs — directly comparable to core.Chain.SumW for the stage.
	// 0 when the window saw no frames.
	WeightEstimate float64
	// P95 is the stage's 95th-percentile per-frame latency in modeled µs,
	// over the whole run so far (streaming log-bucketed histogram).
	P95 float64
}

// samplerState is the per-Run binding: fixed-size aggregate arrays the
// worker goroutines write through atomics.
type samplerState struct {
	workers []int
	scale   float64
	t0      time.Time
	busyNs  []atomic.Int64
	frames  []atomic.Int64
	lat     []*obs.LogHistogram
}

// Sampler aggregates per-frame telemetry during a pipeline run. Create
// with NewSampler and pass via Options.Sampler; a nil *Sampler is the
// disabled sink. A Sampler serves one Run at a time — binding a new run
// resets the windows.
type Sampler struct {
	reg *obs.Registry

	// Flight is accepted and ignored; it is kept only because bench/
	// sets it (ROADMAP item 1(g)).
	Flight *flight.Recorder

	state atomic.Pointer[samplerState]

	mu         sync.Mutex // serializes Sample and rebinding bookkeeping
	tick       int64
	lastNs     int64
	prevBusy   []int64
	prevFrames []int64
	occSeries  []*obs.Series
}

// NewSampler returns a sampler publishing into reg (which may be nil:
// snapshots still work, only the registry export is skipped). Callers
// scope reg per strategy slug — strategy.MetricsScope — so concurrent
// pipelines keep separate series.
func NewSampler(reg *obs.Registry) *Sampler {
	return &Sampler{reg: reg}
}

// bind attaches the sampler to a starting run. Called by Pipeline.Run
// before any worker starts.
func (s *Sampler) bind(stages []pipeStage, scale float64, t0 time.Time) {
	if s == nil {
		return
	}
	st := &samplerState{
		workers: make([]int, len(stages)),
		scale:   scale,
		t0:      t0,
		busyNs:  make([]atomic.Int64, len(stages)),
		frames:  make([]atomic.Int64, len(stages)),
		lat:     make([]*obs.LogHistogram, len(stages)),
	}
	s.mu.Lock()
	s.occSeries = make([]*obs.Series, len(stages))
	for i, ps := range stages {
		st.workers[i] = ps.Cores
		if s.reg != nil {
			n := strconv.Itoa(i)
			st.lat[i] = s.reg.LogHistogram("streampu.latency_us.stage" + n)
			s.occSeries[i] = s.reg.Series("streampu.occupancy_window.stage" + n)
		} else {
			st.lat[i] = obs.NewLogHistogram()
		}
	}
	s.tick = 0
	s.lastNs = 0
	s.prevBusy = make([]int64, len(stages))
	s.prevFrames = make([]int64, len(stages))
	s.state.Store(st)
	s.mu.Unlock()
}

// BindStages attaches the sampler to a run described only by per-stage
// worker counts — the hook benchmarks and external runtimes use when no
// Pipeline.Run drives the binding.
func (s *Sampler) BindStages(workers []int, scale float64, t0 time.Time) {
	if s == nil {
		return
	}
	if scale <= 0 {
		scale = 1
	}
	stages := make([]pipeStage, len(workers))
	for i, w := range workers {
		stages[i].Cores = w
	}
	s.bind(stages, scale, t0)
}

// Record folds one frame execution of one stage into the aggregates:
// busy time, frame count and the latency histogram (in modeled µs).
// Lock-free, allocation-free, safe for concurrent workers; no-op on a
// nil receiver or before binding.
func (s *Sampler) Record(stage int, d time.Duration) {
	if s == nil {
		return
	}
	st := s.state.Load()
	if st == nil || stage < 0 || stage >= len(st.busyNs) {
		return
	}
	st.busyNs[stage].Add(int64(d))
	st.frames[stage].Add(1)
	st.lat[stage].Observe(float64(d) / float64(time.Microsecond) / st.scale)
}

// Sample closes the current window at now: it computes each stage's
// windowed occupancy and weight estimate, appends the occupancy to the
// stage's registry series and returns the per-stage snapshot (nil before
// binding or when no wall time elapsed). Call it from one goroutine.
func (s *Sampler) Sample(now time.Time) []StageSample {
	if s == nil {
		return nil
	}
	st := s.state.Load()
	if st == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	nowNs := now.Sub(st.t0).Nanoseconds()
	windowNs := nowNs - s.lastNs
	if windowNs <= 0 {
		return nil
	}
	tick := s.tick
	s.tick++
	out := make([]StageSample, len(st.workers))
	for i := range st.workers {
		busy := st.busyNs[i].Load()
		frames := st.frames[i].Load()
		dBusy := busy - s.prevBusy[i]
		dFrames := frames - s.prevFrames[i]
		occ := float64(dBusy) / (float64(windowNs) * float64(st.workers[i]))
		ss := StageSample{
			Stage: i, Workers: st.workers[i],
			Occupancy: occ,
			P95:       st.lat[i].Quantile(0.95),
		}
		if dFrames > 0 {
			// ns → modeled µs: de-scale wall time back to the weight unit.
			ss.WeightEstimate = float64(dBusy) / float64(dFrames) / 1e3 / st.scale
		}
		out[i] = ss
		s.occSeries[i].Append(tick, occ)
		s.prevBusy[i] = busy
		s.prevFrames[i] = frames
	}
	s.lastNs = nowNs
	return out
}
