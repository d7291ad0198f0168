package streampu

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/obs"
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

// TestTracerStageOccupancy checks the analysis on a hand-built timeline:
// StageOccupancy is a pure function of the events, and a pipeline run
// short enough for a unit test measures the host's sleep overshoot, not
// the modeled weights. Ten frames at a 20 µs period; stage 0 spends 10 µs
// per frame alternating between two replicas, stage 1 spends 20 µs per
// frame on one worker and is the bottleneck.
func TestTracerStageOccupancy(t *testing.T) {
	const us = time.Microsecond
	tr := &Tracer{}
	t0 := time.Now()
	for f := 0; f < 10; f++ {
		at := t0.Add(time.Duration(20*f) * us)
		tr.record(uint64(f), 0, f%2, "B", at, 10*us)
		tr.record(uint64(f), 1, 0, "L", at.Add(10*us), 20*us)
	}
	occ := tr.StageOccupancy()
	if len(occ) != 2 {
		t.Fatalf("occupancy for %d stages", len(occ))
	}
	for stage, v := range occ {
		if v <= 0 || v > 1.01 {
			t.Errorf("stage %d occupancy %v", stage, v)
		}
	}
	// The trace spans 9 periods + 10 + 20 = 210 µs: stage 0 is busy
	// 100 µs over two workers, stage 1 200 µs on one.
	if want := 100.0 / (210 * 2); math.Abs(occ[0]-want) > 1e-9 {
		t.Errorf("stage 0 occupancy %v, want %v", occ[0], want)
	}
	if want := 200.0 / 210; math.Abs(occ[1]-want) > 1e-9 {
		t.Errorf("stage 1 occupancy %v, want %v", occ[1], want)
	}
	if occ[1] <= occ[0] {
		t.Errorf("bottleneck occupancy %v not above %v", occ[1], occ[0])
	}
	empty := &Tracer{}
	if empty.StageOccupancy() != nil {
		t.Error("empty tracer occupancy should be nil")
	}
}

// TestTracerOriginIsEarliestStart records two 1 µs executions picked up
// 5 µs apart in reverse order — a replica that picked its frame up first
// but finished recording second. The timeline must still start at 0 (no
// negative Start, no negative Chrome ts) and span 6 µs, so two workers
// busy 1 µs each read 2/(6·2) occupancy, not 2/(1·2).
func TestTracerOriginIsEarliestStart(t *testing.T) {
	const us = time.Microsecond
	tr := &Tracer{}
	t0 := time.Now()
	tr.record(1, 0, 1, "B", t0.Add(5*us), us)
	tr.record(0, 0, 0, "B", t0, us)
	events := tr.Events()
	if len(events) != 2 || events[0].Frame != 0 || events[0].Start != 0 || events[1].Start != 5*us {
		t.Fatalf("events %+v, want frame 0 at 0 then frame 1 at 5µs", events)
	}
	if occ, want := tr.StageOccupancy()[0], 2.0/(6*2); math.Abs(occ-want) > 1e-9 {
		t.Errorf("occupancy %v, want %v", occ, want)
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

// TestTracerConcurrentRecord hammers record from many goroutines — the
// -race companion for the pipeline workers' concurrent appends — while
// readers snapshot the tracer and export its metrics.
func TestTracerConcurrentRecord(t *testing.T) {
	const writers, perWriter = 8, 500
	tr := &Tracer{}
	reg := obs.NewRegistry()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.record(uint64(i), w%3, w, "B",
					t0.Add(time.Duration(i)*time.Microsecond), time.Microsecond)
			}
		}()
	}
	// Concurrent readers exercise Events/Len/RecordMetrics against the
	// in-flight appends.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Events()
			tr.Len()
			tr.RecordMetrics(obs.NewRegistry())
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Len(); got != writers*perWriter {
		t.Fatalf("%d events recorded, want %d", got, writers*perWriter)
	}
	tr.RecordMetrics(reg)
	byName := map[string]obs.Sample{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s
	}
	if got := byName["streampu.trace.events"].Count; got != writers*perWriter {
		t.Errorf("streampu.trace.events = %d, want %d", got, writers*perWriter)
	}
	for stage := 0; stage < 3; stage++ {
		name := fmt.Sprintf("streampu.occupancy.stage%d", stage)
		s, ok := byName[name]
		if !ok {
			t.Errorf("%s not recorded", name)
			continue
		}
		if s.Value <= 0 || s.Value > 1.01 {
			t.Errorf("%s = %v, want a fraction in (0, 1]", name, s.Value)
		}
	}
}

// TestTracerRecordMetricsNil pins the nil-safety contract on both sides.
func TestTracerRecordMetricsNil(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.RecordMetrics(obs.NewRegistry()) // must not panic
	tr := tracedRun(t)
	tr.RecordMetrics(nil) // must not panic
	reg := obs.NewRegistry()
	tr.RecordMetrics(reg)
	if len(reg.Snapshot()) < 3 {
		t.Errorf("traced run exported %d series, want >= 3", len(reg.Snapshot()))
	}
}
