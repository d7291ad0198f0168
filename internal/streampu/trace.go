package streampu

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/trace"
)

// Execution tracing: a Tracer records one event per (frame, stage)
// execution with worker attribution and converts the timeline to the
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

// Tracer collects trace events from pipeline runs: create one, set
// Options.Tracer, run, then inspect or export. It is written by the run's
// workers and read after Run returns — each worker fills a buffer of its
// own, so the frame path takes no lock; the live view of a run in flight is
// the Sampler. A Tracer reused across runs accumulates their events on one
// timeline. The zero value is ready to use.
type Tracer struct {
	mu   sync.Mutex // guards bufs and t0, taken once per worker, never per frame
	bufs []*traceBuf
	t0   time.Time
}

// traceBuf is one worker's share of a trace: what every event of the
// worker has in common, and a pointer-free record per frame the collector
// never scans.
type traceBuf struct {
	stage, worker int
	core          core.CoreType
	t0            time.Time // the Tracer's; record starts count from it
	recs          []traceRec
}

type traceRec struct {
	seq        uint64
	start, dur int64 // ns
}

// newBuf registers the buffer of one worker, with room for the n frames it
// will see. A nil Tracer hands out a nil buffer.
func (tr *Tracer) newBuf(stage, worker int, typ core.CoreType, n int) *traceBuf {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.t0.IsZero() {
		tr.t0 = time.Now()
	}
	b := &traceBuf{stage: stage, worker: worker, core: typ, t0: tr.t0, recs: make([]traceRec, 0, n)}
	tr.bufs = append(tr.bufs, b)
	return b
}

// add records one stage execution (called by the buffer's worker only).
func (b *traceBuf) add(seq uint64, start time.Time, d time.Duration) {
	b.recs = append(b.recs, traceRec{seq, int64(start.Sub(b.t0)), int64(d)})
}

// Events returns the recorded events sorted by start time, with the
// earliest start at 0: a worker can pick a frame up before the Tracer's
// own origin was taken, so the origin is fixed here.
func (tr *Tracer) Events() []TraceEvent {
	out := make([]TraceEvent, 0, tr.Len())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, b := range tr.bufs {
		label := b.core.String()
		for _, r := range b.recs {
			out = append(out, TraceEvent{
				Frame: r.seq, Stage: b.stage, Worker: b.worker, Core: label,
				Start: time.Duration(r.start), Duration: time.Duration(r.dur),
			})
		}
	}
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
	n := 0
	for _, b := range tr.bufs {
		n += len(b.recs)
	}
	return n
}

// ChromeEvents converts the timeline to Chrome trace events for
// trace.Journal.WriteChromeTrace: one process pid, one track per (stage,
// worker) named "<name> stage<s>/<core><worker>", one complete event per
// frame.
func (tr *Tracer) ChromeEvents(pid int, name string) []trace.ChromeEvent {
	events := tr.Events()
	out := make([]trace.ChromeEvent, len(events))
	for i, e := range events {
		out[i] = trace.ChromeEvent{
			Name: fmt.Sprintf("frame %d", e.Frame),
			Ph:   "X",
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Duration.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  fmt.Sprintf("%s stage%d/%s%d", name, e.Stage, e.Core, e.Worker),
			Args: []trace.Attr{trace.Int("frame", int64(e.Frame))},
		}
	}
	return out
}
