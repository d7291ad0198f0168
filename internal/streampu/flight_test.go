package streampu

import (
	"errors"
	"testing"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/obs/flight"
)

func TestPipelineRecordsFrameDropsOnce(t *testing.T) {
	rec := flight.New(256)
	failing := &FuncTask{TaskName: "maybe", Rep: true, Fn: func(w *Worker, f *Frame) error {
		if f.Seq%7 == 3 {
			return errors.New("boom")
		}
		return nil
	}}
	tasks := []Task{failing, timedTask("carry", 0, 0, false)}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 2, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(50, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDrops := 50 / 7 // seqs 3, 10, 17, ...
	if st.Errored != wantDrops {
		t.Fatalf("errored = %d, want %d", st.Errored, wantDrops)
	}
	// One drop per broken frame, attributed to the breaking stage only —
	// the downstream carry stage must not re-record it.
	drops := 0
	for _, e := range rec.Snapshot() {
		if e.Code != flight.CodeFrameDrop {
			continue // incidental stalls are timing-dependent, ignore them
		}
		if e.Stage != 0 {
			t.Fatalf("drop attributed to stage %d, want 0: %+v", e.Stage, e)
		}
		if seq := uint64(e.Tick); seq%7 != 3 || e.A != float64(e.Tick) {
			t.Fatalf("drop payload does not match the failing seqs: %+v", e)
		}
		drops++
	}
	if drops != wantDrops {
		t.Fatalf("recorded %d drops, want %d", drops, wantDrops)
	}
}

func TestPipelineRecordsStallsOnBackpressure(t *testing.T) {
	rec := flight.New(256)
	const frames = 6
	gate := make(chan struct{}, frames)
	blocked := &FuncTask{TaskName: "gate", Rep: false, Fn: func(w *Worker, f *Frame) error {
		<-gate
		return nil
	}}
	tasks := []Task{timedTask("fast", 0, 0, true), blocked}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{QueueCap: 1, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the downstream stage shut long enough for the producer to fill
	// the one-slot buffer and block: every handoff past the first two must
	// probe a full channel and record a stall before waiting it out.
	go func() {
		time.Sleep(20 * time.Millisecond)
		for i := 0; i < frames; i++ {
			gate <- struct{}{}
		}
	}()
	st, err := p.Run(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != frames || st.Errored != 0 {
		t.Fatalf("stats: %+v", st)
	}
	stalls := 0
	for _, e := range rec.Snapshot() {
		if e.Code != flight.CodeStall {
			continue
		}
		stalls++
		if e.Stage != 0 || e.B != 0 || e.A != float64(e.Tick) {
			t.Fatalf("stall payload: %+v (want stage 0, replica 0, A == seq)", e)
		}
	}
	if stalls == 0 {
		t.Fatal("no stall events despite a gated downstream stage")
	}
}

func TestSamplerRecordsWindowEvents(t *testing.T) {
	rec := flight.New(64)
	s := NewSampler(nil)
	s.Flight = rec
	t0 := time.Now()
	s.BindStages([]int{1, 2}, 1, t0)
	s.Record(0, 5*time.Millisecond)
	s.Record(1, 2*time.Millisecond)
	s.Record(1, 2*time.Millisecond)
	out := s.Sample(t0.Add(10 * time.Millisecond))
	if len(out) != 2 {
		t.Fatalf("sample returned %d stages, want 2", len(out))
	}
	evs := rec.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("flight holds %d events, want one window per active stage: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Code != flight.CodeWindow || e.Tick != 0 {
			t.Fatalf("event %d = %+v, want a window event for tick 0", i, e)
		}
		ss := out[e.Stage]
		if e.A != ss.Occupancy || e.B != ss.WeightEstimate {
			t.Fatalf("event %d payload %+v does not match sample %+v", i, e, ss)
		}
	}
	// An empty window records nothing (no frames → no estimates).
	if s.Sample(t0.Add(20*time.Millisecond)) == nil {
		t.Fatal("second sample returned nil")
	}
	if n := len(rec.Snapshot()); n != 2 {
		t.Fatalf("empty window added events: now %d", n)
	}
}
