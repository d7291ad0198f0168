package streampu

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/obs"
)

func samplerPipeline(t *testing.T, s *Sampler) *Pipeline {
	t.Helper()
	tasks := []Task{
		timedTask("a", 200, 200, true),
		timedTask("b", 400, 400, true),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 2, Type: core.Little},
	}}
	p, err := New(tasks, sol, Options{Sampler: s})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSamplerAggregatesRun(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSampler(reg)
	p := samplerPipeline(t, s)
	if _, err := p.Run(40, nil); err != nil {
		t.Fatal(err)
	}
	snap := s.Sample(time.Now())
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d stages, want 2", len(snap))
	}
	for i, ss := range snap {
		if ss.Stage != i {
			t.Errorf("stage %d reported index %d", i, ss.Stage)
		}
		if ss.Frames != 40 || ss.FrameDelta != 40 {
			t.Errorf("stage %d frames = %d/%d, want 40/40", i, ss.Frames, ss.FrameDelta)
		}
		if ss.Occupancy <= 0 || ss.Occupancy > 1.5 {
			t.Errorf("stage %d occupancy = %v", i, ss.Occupancy)
		}
		if ss.WeightEstimate <= 0 {
			t.Errorf("stage %d weight estimate = %v", i, ss.WeightEstimate)
		}
		if ss.P95 <= 0 || ss.P50 > ss.P99 {
			t.Errorf("stage %d percentiles = %v/%v/%v", i, ss.P50, ss.P95, ss.P99)
		}
	}
	if snap[0].Workers != 1 || snap[1].Workers != 2 {
		t.Errorf("workers = %d/%d", snap[0].Workers, snap[1].Workers)
	}
	// The modeled per-frame weight should be in the right ballpark: stage 0
	// runs a 200 µs task, stage 1 a 400 µs task (sleep overshoot only adds).
	if snap[0].WeightEstimate < 150 {
		t.Errorf("stage 0 weight estimate %v, want ≳200", snap[0].WeightEstimate)
	}
	// Registry got the occupancy series and latency histograms; the sink
	// stage's latency count is the frame count a rate() over it needs.
	if reg.Series("streampu.occupancy_window.stage0").Total() != 1 {
		t.Error("occupancy series missing sample")
	}
	if reg.LogHistogram("streampu.latency_us.stage1").Count() != 40 {
		t.Error("latency histogram missing observations")
	}
	var names []string
	for _, m := range reg.Snapshot() {
		names = append(names, m.Name)
	}
	want := []string{"streampu.latency_us.stage0", "streampu.latency_us.stage1",
		"streampu.occupancy_window.stage0", "streampu.occupancy_window.stage1"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("registered series = %v, want %v", names, want)
	}
}

func TestSamplerWindowsAreDeltas(t *testing.T) {
	s := NewSampler(nil) // nil registry: snapshots only
	p := samplerPipeline(t, s)
	if _, err := p.Run(20, nil); err != nil {
		t.Fatal(err)
	}
	first := s.Sample(time.Now())
	if first[1].FrameDelta != 20 {
		t.Fatalf("first window delta = %d", first[1].FrameDelta)
	}
	// No frames between the two samples: second window is empty.
	second := s.Sample(time.Now().Add(time.Millisecond))
	if second == nil {
		t.Fatal("second sample nil")
	}
	if second[1].FrameDelta != 0 || second[1].Frames != 20 {
		t.Errorf("second window = %d delta (%d total), want 0 (20)", second[1].FrameDelta, second[1].Frames)
	}
	if second[1].WeightEstimate != 0 {
		t.Errorf("empty window weight estimate = %v, want 0", second[1].WeightEstimate)
	}
	if second[1].Occupancy != 0 {
		t.Errorf("empty window occupancy = %v, want 0", second[1].Occupancy)
	}
}

func TestSamplerConcurrentSampleDuringRun(t *testing.T) {
	// Race check: Sample concurrently with worker Record calls.
	s := NewSampler(obs.NewRegistry())
	p := samplerPipeline(t, s)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Sample(time.Now())
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	if _, err := p.Run(60, nil); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	final := s.Sample(time.Now().Add(time.Millisecond))
	if final[1].Frames != 60 {
		t.Fatalf("final cumulative frames = %d, want 60", final[1].Frames)
	}
}

func TestSamplerNilAndUnboundInert(t *testing.T) {
	var s *Sampler
	s.Record(0, time.Millisecond)
	if s.Sample(time.Now()) != nil {
		t.Error("nil sampler produced a snapshot")
	}
	u := NewSampler(nil)
	u.Record(0, time.Millisecond) // before bind: dropped
	if u.Sample(time.Now()) != nil {
		t.Error("unbound sampler produced a snapshot")
	}
}

func TestSamplerRecordAllocs(t *testing.T) {
	var nilS *Sampler
	if n := testing.AllocsPerRun(100, func() { nilS.Record(0, time.Millisecond) }); n != 0 {
		t.Errorf("nil Record allocates %v/op", n)
	}
	s := NewSampler(nil)
	s.bind([]pipeStage{{Stage: core.Stage{Cores: 1}}}, 1, time.Now())
	if n := testing.AllocsPerRun(100, func() { s.Record(0, time.Millisecond) }); n != 0 {
		t.Errorf("bound Record allocates %v/op", n)
	}
	s.Record(-1, time.Millisecond) // out of range: dropped, no panic
	s.Record(5, time.Millisecond)
}

func TestSamplerStallCounters(t *testing.T) {
	var nilS *Sampler
	nilS.RecordStall(0) // inert
	s := NewSampler(nil)
	s.RecordStall(0) // before bind: dropped
	s.bind([]pipeStage{{Stage: core.Stage{Cores: 1}}, {Stage: core.Stage{Cores: 1}}}, 1, time.Now())
	if n := testing.AllocsPerRun(100, func() { s.RecordStall(0) }); n != 0 {
		t.Errorf("RecordStall allocates %v/op", n)
	}
	s.RecordStall(-1) // out of range: dropped, no panic
	s.RecordStall(5)
	s.RecordStall(0)
	s.Record(0, time.Millisecond)
	snap := s.Sample(time.Now().Add(time.Millisecond))
	// 100 from AllocsPerRun (plus its warm-up call) and 1 explicit.
	if snap[0].Stalls != 102 || snap[0].StallDelta != 102 {
		t.Errorf("stage 0 stalls = %d/%d, want 102/102", snap[0].Stalls, snap[0].StallDelta)
	}
	if snap[1].Stalls != 0 {
		t.Errorf("stage 1 stalls = %d, want 0", snap[1].Stalls)
	}
	// Windows are deltas: a second sample with no new stalls keeps the
	// cumulative count and zeroes the delta.
	s.Record(0, time.Millisecond)
	snap = s.Sample(time.Now().Add(2 * time.Millisecond))
	if snap[0].Stalls != 102 || snap[0].StallDelta != 0 {
		t.Errorf("second window stalls = %d/%d, want 102/0", snap[0].Stalls, snap[0].StallDelta)
	}
}

// TestSamplerCountsPipelineStalls drives a pipeline shaped to stall —
// a fast source against a single-slot queue into a slow sink — and
// checks the stall counters surface through a live Sample snapshot.
func TestSamplerCountsPipelineStalls(t *testing.T) {
	s := NewSampler(nil)
	tasks := []Task{
		timedTask("fast", 0, 0, true),
		timedTask("slow", 400, 400, true),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{Sampler: s, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	snap := s.Sample(time.Now())
	if snap[0].Stalls == 0 {
		t.Error("fast source never stalled against the slow sink")
	}
	if snap[1].Stalls != 0 {
		t.Errorf("sink stage reports %d stalls, want 0 (it has no downstream)", snap[1].Stalls)
	}
}

// TestPipelineCountsStallsOnBackpressure holds the downstream stage shut
// until the producer has filled the one-slot buffer, so every hand-off
// past the first two finds it full: the pipeline must count those stalls
// against stage 0 through Sampler.RecordStall, and none against the sink.
func TestPipelineCountsStallsOnBackpressure(t *testing.T) {
	const frames = 6
	s := NewSampler(nil)
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
	p, err := New(tasks, sol, Options{QueueCap: 1, Sampler: s})
	if err != nil {
		t.Fatal(err)
	}
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
	snap := s.Sample(time.Now())
	if snap[0].Stalls == 0 {
		t.Error("no stalls counted despite a gated downstream stage")
	}
	if snap[1].Stalls != 0 {
		t.Errorf("sink stage reports %d stalls, want 0", snap[1].Stalls)
	}
}
