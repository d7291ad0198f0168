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
