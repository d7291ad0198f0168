package streampu

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ampsched/internal/core"
)

func tracedRun(t *testing.T) *Tracer {
	t.Helper()
	tr := &Tracer{}
	tasks := []Task{
		timedTask("a", 10, 10, true),
		timedTask("b", 20, 20, true),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 2, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Little},
	}}
	p, err := New(tasks, sol, Options{TimeScale: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(40, nil); err != nil {
		t.Fatal(err)
	}
	return tr
}

// handTrace fills a Tracer the way a run's workers do — one buffer per
// (stage, worker), records appended by their owner — for tests that need
// a hand-built timeline.
type handTrace struct {
	tr   Tracer
	bufs map[[2]int]*traceBuf
}

func (h *handTrace) record(frame uint64, stage, worker int, typ core.CoreType, start time.Time, d time.Duration) {
	b := h.bufs[[2]int{stage, worker}]
	if b == nil {
		if h.bufs == nil {
			h.bufs = map[[2]int]*traceBuf{}
		}
		b = h.tr.newBuf(stage, worker, typ, 0)
		h.bufs[[2]int{stage, worker}] = b
	}
	b.add(frame, start, d)
}

func TestTracerRecordsEveryStageExecution(t *testing.T) {
	tr := tracedRun(t)
	// 40 frames × 2 stages.
	if tr.Len() != 80 {
		t.Fatalf("%d events, want 80", tr.Len())
	}
	events := tr.Events()
	perStage := map[int]int{}
	workers := map[[2]int]bool{}
	for i, e := range events {
		perStage[e.Stage]++
		workers[[2]int{e.Stage, e.Worker}] = true
		if e.Duration <= 0 {
			t.Fatalf("event %d has non-positive duration", i)
		}
		if i > 0 && e.Start < events[i-1].Start {
			t.Fatal("events not sorted by start")
		}
	}
	if events[0].Start != 0 {
		t.Errorf("timeline starts at %v, want 0", events[0].Start)
	}
	if perStage[0] != 40 || perStage[1] != 40 {
		t.Errorf("per-stage counts %v", perStage)
	}
	// Stage 0 has two replicas, stage 1 one worker.
	if !workers[[2]int{0, 0}] || !workers[[2]int{0, 1}] || !workers[[2]int{1, 0}] {
		t.Errorf("worker attribution wrong: %v", workers)
	}
	// Core labels carried through.
	if events[0].Core != "B" && events[0].Core != "L" {
		t.Errorf("core label %q", events[0].Core)
	}
}

func TestTracerChromeExport(t *testing.T) {
	tr := tracedRun(t)
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out) != 80 {
		t.Fatalf("%d chrome events", len(out))
	}
	first := out[0]
	for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
		if _, ok := first[key]; !ok {
			t.Errorf("chrome event missing %q: %v", key, first)
		}
	}
	if first["ph"] != "X" {
		t.Errorf("phase %v, want X", first["ph"])
	}
}

// TestTracerOriginIsEarliestStart records two 1 µs executions picked up
// 5 µs apart in reverse order, both before the Tracer took its own origin
// (a first buffer is registered after t0) — a replica that picked its
// frame up first but registered second. The timeline must still start at
// 0: no negative Start and no negative Chrome ts.
func TestTracerOriginIsEarliestStart(t *testing.T) {
	const us = time.Microsecond
	var h handTrace
	tr := &h.tr
	t0 := time.Now()
	h.record(1, 0, 1, core.Big, t0.Add(5*us), us)
	h.record(0, 0, 0, core.Big, t0, us)
	events := tr.Events()
	if len(events) != 2 || events[0].Frame != 0 || events[0].Start != 0 || events[1].Start != 5*us {
		t.Fatalf("events %+v, want frame 0 at 0 then frame 1 at 5µs", events)
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Ts float64 `json:"ts"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Ts != 0 || out[1].Ts != 5 {
		t.Errorf("chrome ts %+v, want 0 and 5", out)
	}
}

// TestTracerConcurrentRecord is the -race companion for the pipeline
// workers: many goroutines register a buffer each against one Tracer and
// fill it at once, as a run's workers do; the readers come after, which
// is the Tracer's contract.
func TestTracerConcurrentRecord(t *testing.T) {
	const writers, perWriter = 8, 500
	tr := &Tracer{}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := tr.newBuf(w%3, w, core.Big, perWriter/2) // undersized: the buffer must grow
			for i := 0; i < perWriter; i++ {
				b.add(uint64(i), t0.Add(time.Duration(i)*time.Microsecond), time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != writers*perWriter {
		t.Fatalf("%d events materialised, want %d", got, writers*perWriter)
	}
	if got := tr.Len(); got != writers*perWriter {
		t.Fatalf("%d events recorded, want %d", got, writers*perWriter)
	}
}

// TestTracerReplicatedRun holds the per-worker buffers to the trace they
// replaced on a 3→2→1 pipeline: exactly one event per (frame, stage),
// attributed to the replica that owns the frame and to its core type,
// sorted from an origin of 0 — and inside Stats.Elapsed, which starts
// before the first worker does. A second run on the same Tracer appends.
func TestTracerReplicatedRun(t *testing.T) {
	const frames = 300
	cores := []int{3, 2, 1}
	types := []core.CoreType{core.Big, core.Little, core.Big}
	var tasks []Task
	var sol core.Solution
	for i := range cores {
		tasks = append(tasks, timedTask(fmt.Sprintf("t%d", i), 0, 0, true))
		sol.Stages = append(sol.Stages, core.Stage{Start: i, End: i, Cores: cores[i], Type: types[i]})
	}
	tr := &Tracer{}
	p, err := New(tasks, sol, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		st, err := p.Run(frames, nil)
		if err != nil {
			t.Fatal(err)
		}
		events := tr.Events()
		if len(events) != run*frames*len(cores) || tr.Len() != len(events) {
			t.Fatalf("run %d: %d events (Len %d), want %d", run, len(events), tr.Len(), run*frames*len(cores))
		}
		seen := map[[2]uint64]int{}
		var end time.Duration
		for i, e := range events {
			seen[[2]uint64{e.Frame, uint64(e.Stage)}]++
			if want := int(e.Frame) % cores[e.Stage]; e.Worker != want {
				t.Fatalf("frame %d stage %d traced on worker %d, want %d", e.Frame, e.Stage, e.Worker, want)
			}
			if want := types[e.Stage].String(); e.Core != want {
				t.Fatalf("frame %d stage %d traced on core %q, want %q", e.Frame, e.Stage, e.Core, want)
			}
			if i > 0 && e.Start < events[i-1].Start {
				t.Fatal("events not sorted by start")
			}
			if e.Duration < 0 {
				t.Fatalf("event %d has a negative duration", i)
			}
			if e.Start+e.Duration > end {
				end = e.Start + e.Duration
			}
		}
		if events[0].Start != 0 {
			t.Errorf("timeline starts at %v, want 0", events[0].Start)
		}
		for f := uint64(0); f < frames; f++ {
			for s := range cores {
				if n := seen[[2]uint64{f, uint64(s)}]; n != run {
					t.Fatalf("run %d: frame %d stage %d has %d events, want %d", run, f, s, n, run)
				}
			}
		}
		if run == 1 && st.Elapsed < end {
			t.Errorf("Elapsed %v ends before the last traced execution (%v)", st.Elapsed, end)
		}
	}
}

// TestTracerChromeGolden pins the export byte for byte on a fixed
// timeline, recorded stage by stage rather than in time order; the golden
// is what the shared []TraceEvent store wrote for the same executions.
func TestTracerChromeGolden(t *testing.T) {
	const us = time.Microsecond
	var h handTrace
	t0 := time.Now()
	for f := 0; f < 4; f++ {
		h.record(uint64(f), 1, 0, core.Little, t0.Add(time.Duration(20*f+10)*us), 20*us)
	}
	for f := 0; f < 4; f++ {
		h.record(uint64(f), 0, f%2, core.Big, t0.Add(time.Duration(20*f)*us), 10*us+time.Duration(f)*500)
	}
	var sb strings.Builder
	if err := h.tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `[
{"name":"frame 0","ph":"X","ts":0,"dur":10,"pid":0,"tid":"stage0/B0","args":{"frame":0}},
{"name":"frame 0","ph":"X","ts":10,"dur":20,"pid":1,"tid":"stage1/L0","args":{"frame":0}},
{"name":"frame 1","ph":"X","ts":20,"dur":10.5,"pid":0,"tid":"stage0/B1","args":{"frame":1}},
{"name":"frame 1","ph":"X","ts":30,"dur":20,"pid":1,"tid":"stage1/L0","args":{"frame":1}},
{"name":"frame 2","ph":"X","ts":40,"dur":11,"pid":0,"tid":"stage0/B0","args":{"frame":2}},
{"name":"frame 2","ph":"X","ts":50,"dur":20,"pid":1,"tid":"stage1/L0","args":{"frame":2}},
{"name":"frame 3","ph":"X","ts":60,"dur":11.5,"pid":0,"tid":"stage0/B1","args":{"frame":3}},
{"name":"frame 3","ph":"X","ts":70,"dur":20,"pid":1,"tid":"stage1/L0","args":{"frame":3}}
]
`
	if sb.String() != want {
		t.Errorf("chrome export changed:\n%s\nwant:\n%s", sb.String(), want)
	}
}
