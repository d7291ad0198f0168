package streampu

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// Execution tracing: a Tracer records one event per (frame, stage)
// execution with worker attribution and can export the timeline in the
// Chrome trace-event format (load it at chrome://tracing or in Perfetto)
// — the kind of observability a production streaming runtime needs when
// a schedule underperforms its predicted period.

// TraceEvent is one stage execution of one frame.
type TraceEvent struct {
	Frame    uint64
	Stage    int
	Worker   int
	Core     string
	Start    time.Duration // since the earliest pick-up of the trace
	Duration time.Duration
}

// Tracer collects trace events from a pipeline run. It is safe for
// concurrent use; create one, set Options.Tracer, run, then inspect or
// export. The zero value is ready to use.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
	t0     time.Time
	once   sync.Once
}

// record appends one event (called by pipeline workers).
func (tr *Tracer) record(frame uint64, stage, worker int, core string, start time.Time, d time.Duration) {
	tr.once.Do(func() { tr.t0 = start })
	tr.mu.Lock()
	tr.events = append(tr.events, TraceEvent{
		Frame: frame, Stage: stage, Worker: worker, Core: core,
		Start: start.Sub(tr.t0), Duration: d,
	})
	tr.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time, with
// the earliest start at 0. record stamps events against the first one
// recorded, but a replica that picked its frame up earlier can record
// later, so the stored starts may be negative: the origin is fixed here.
func (tr *Tracer) Events() []TraceEvent {
	tr.mu.Lock()
	out := append([]TraceEvent(nil), tr.events...)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	if len(out) > 0 {
		origin := out[0].Start
		for i := range out {
			out[i].Start -= origin
		}
	}
	return out
}

// Len returns the number of recorded events.
func (tr *Tracer) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.events)
}

// WriteChromeTrace exports the timeline as a Chrome trace-event JSON
// array: one track per (stage, worker), one complete event per frame. It
// serializes through internal/trace's shared trace-event writer, the same
// one behind the scheduler's decision-journal Chrome view.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	events := tr.Events()
	out := make([]trace.ChromeEvent, len(events))
	for i, e := range events {
		out[i] = trace.ChromeEvent{
			Name: fmt.Sprintf("frame %d", e.Frame),
			Ph:   "X",
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Duration.Nanoseconds()) / 1e3,
			Pid:  e.Stage,
			Tid:  fmt.Sprintf("stage%d/%s%d", e.Stage, e.Core, e.Worker),
			Args: []trace.Attr{trace.Int("frame", int64(e.Frame))},
		}
	}
	return trace.WriteChromeEvents(w, out)
}

// occupancyNames interns the per-stage occupancy gauge names shared by
// RecordMetrics and the windowed Sampler: repeated sampling must not
// rebuild "streampu.occupancy.stageN" strings on every call.
var occupancyNames = obs.NewNameTable("streampu.occupancy.stage")

// latencyNames interns the per-stage latency histogram names used by the
// Sampler ("streampu.latency_us.stageN").
var latencyNames = obs.NewNameTable("streampu.latency_us.stage")

// RecordMetrics feeds the trace's aggregates into m so run-time
// observability shares the scheduling stack's export format: one
// "streampu.occupancy.stage<N>" gauge per stage (StageOccupancy) plus
// the "streampu.trace.events" counter. Gauge names are interned in a
// package-level obs.NameTable, so repeated windowed sampling does not
// allocate name strings per call. No-op when m or tr is nil.
func (tr *Tracer) RecordMetrics(m *obs.Registry) {
	if tr == nil || m == nil {
		return
	}
	occ := tr.StageOccupancy()
	stages := make([]int, 0, len(occ))
	for stage := range occ {
		stages = append(stages, stage)
	}
	sort.Ints(stages)
	for _, stage := range stages {
		m.Gauge(occupancyNames.Name(stage)).Set(occ[stage])
	}
	m.Counter("streampu.trace.events").Add(int64(tr.Len()))
}

// StageOccupancy returns, per stage, the fraction of the traced wall
// time its workers spent busy (aggregate busy time ÷ (span × workers)).
func (tr *Tracer) StageOccupancy() map[int]float64 {
	events := tr.Events()
	if len(events) == 0 {
		return nil
	}
	var span time.Duration
	busy := map[int]time.Duration{}
	workers := map[int]map[int]bool{}
	for _, e := range events {
		if end := e.Start + e.Duration; end > span {
			span = end
		}
		busy[e.Stage] += e.Duration
		if workers[e.Stage] == nil {
			workers[e.Stage] = map[int]bool{}
		}
		workers[e.Stage][e.Worker] = true
	}
	out := map[int]float64{}
	for stage, b := range busy {
		if span <= 0 {
			out[stage] = 0
			continue
		}
		out[stage] = b.Seconds() / (span.Seconds() * float64(len(workers[stage])))
	}
	return out
}
