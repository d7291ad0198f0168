package streampu

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/obs"
	"ampsched/internal/streampu/ring"
)

// TestOptionsValidation covers the up-front rejection of option values
// that previously slipped into the run (negative capacities used to make
// unbuffered channels).
func TestOptionsValidation(t *testing.T) {
	tasks := []Task{timedTask("a", 1, 1, true)}
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}}
	bad := []Options{
		{QueueCap: -1},
		{TimeScale: -2},
		{TimeScale: math.NaN()},
		{TimeScale: math.Inf(1)},
	}
	for i, opt := range bad {
		if _, err := New(tasks, sol, opt); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, opt)
		}
	}
	// Zero values select the documented defaults; explicit valid values pass.
	good := []Options{
		{},
		{QueueCap: 1, TimeScale: 2},
	}
	for i, opt := range good {
		if _, err := New(tasks, sol, opt); err != nil {
			t.Errorf("good options %d rejected: %v", i, err)
		}
	}
}

// chanBoundary is the reference implementation: the buffered-channel
// matrix the ring boundary replaced, kept for differential testing.
type chanBoundary struct {
	ch [][]chan *Frame // [upstream replica][downstream replica]
}

func newChanBoundary(r1, r2, cap int) boundary {
	b := &chanBoundary{ch: make([][]chan *Frame, r1)}
	for u := range b.ch {
		b.ch[u] = make([]chan *Frame, r2)
		for w := range b.ch[u] {
			b.ch[u][w] = make(chan *Frame, cap)
		}
	}
	return b
}

func (b *chanBoundary) send(u, w int, f *Frame) {
	b.ch[u][w] <- f
}

func (b *chanBoundary) recv(u, w int) (*Frame, bool) {
	f, ok := <-b.ch[u][w]
	return f, ok
}

func (b *chanBoundary) closeUp(u int) {
	for _, ch := range b.ch[u] {
		close(ch)
	}
}

// runShape executes a 3-stage pipeline (r1 → r2 → 1 sink) over frames
// frames with the given boundary constructor (nil: the ring boundary), a
// deterministic failure pattern, and returns the stats plus the sink's
// observed delivery order.
func runShape(t *testing.T, newBoundary func(r1, r2, cap int) boundary, r1, r2, queueCap, frames int) (Stats, []uint64) {
	t.Helper()
	oc := &orderCheck{}
	failing := &FuncTask{TaskName: "maybe", Rep: true, Fn: func(w *Worker, f *Frame) error {
		if f.Seq%11 == 5 {
			return errors.New("boom")
		}
		return nil
	}}
	tasks := []Task{
		failing,
		timedTask("mid", 3, 3, true),
		oc.task(),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: r1, Type: core.Big},
		{Start: 1, End: 1, Cores: r2, Type: core.Big},
		{Start: 2, End: 2, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	p.newBoundary = newBoundary
	st, err := p.Run(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	oc.verify(t, frames)
	return st, append([]uint64(nil), oc.seen...)
}

// TestBoundaryDifferential drives the ring boundary and the reference
// channel boundary through the same deterministic workloads — every
// replica shape (1→N, N→1, N→M) across several queue capacities — and
// requires identical frame counts, error counts, and sink delivery order.
func TestBoundaryDifferential(t *testing.T) {
	shapes := []struct{ r1, r2 int }{{1, 1}, {1, 4}, {4, 1}, {3, 2}, {2, 3}}
	for _, sh := range shapes {
		for _, cap := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%dto%d_cap%d", sh.r1, sh.r2, cap), func(t *testing.T) {
				const frames = 200
				ringSt, ringOrder := runShape(t, nil, sh.r1, sh.r2, cap, frames)
				chanSt, chanOrder := runShape(t, newChanBoundary, sh.r1, sh.r2, cap, frames)
				if ringSt.Frames != chanSt.Frames || ringSt.Errored != chanSt.Errored {
					t.Fatalf("stats diverge: ring (%d frames, %d errored) vs channel (%d, %d)",
						ringSt.Frames, ringSt.Errored, chanSt.Frames, chanSt.Errored)
				}
				for i := range ringOrder {
					if ringOrder[i] != chanOrder[i] {
						t.Fatalf("delivery order diverges at %d: ring %d vs channel %d",
							i, ringOrder[i], chanOrder[i])
					}
				}
			})
		}
	}
}

// TestRingBoundaryStressSoak is the -race workhorse for the ring hot
// path: a fan-out/fan-in pipeline (3→2→4→1) with single-slot queues (so
// the blocking slow path fires constantly), a slow sink (so
// backpressure propagates the whole chain), and thousands of frames. No
// frame may be lost or reordered, and the error accounting must be exact.
func TestRingBoundaryStressSoak(t *testing.T) {
	const frames = 3000
	oc := &orderCheck{}
	sampler := NewSampler(nil)
	jitter := &FuncTask{TaskName: "jitter", Rep: true, Fn: func(w *Worker, f *Frame) error {
		if f.Seq%13 == 0 {
			runtime.Gosched() // perturb replica interleaving
		}
		if f.Seq%97 == 17 {
			return errors.New("boom")
		}
		return nil
	}}
	slowSink := &FuncTask{TaskName: "sink", Rep: false, Fn: func(w *Worker, f *Frame) error {
		if f.Seq%29 == 0 {
			runtime.Gosched() // intermittent sink hiccups push backpressure upstream
		}
		return nil
	}}
	tasks := []Task{
		jitter,
		timedTask("a", 0, 0, true),
		timedTask("b", 0, 0, true),
		&chainedTask{Task: oc.task(), also: slowSink},
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 3, Type: core.Big},
		{Start: 1, End: 1, Cores: 2, Type: core.Big},
		{Start: 2, End: 2, Cores: 4, Type: core.Big},
		{Start: 3, End: 3, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{QueueCap: 1, Sampler: sampler})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != frames {
		t.Fatalf("lost frames: got %d, want %d", st.Frames, frames)
	}
	wantErr := 0
	for s := 0; s < frames; s++ {
		if s%97 == 17 {
			wantErr++
		}
	}
	if st.Errored != wantErr {
		t.Fatalf("errored = %d, want %d", st.Errored, wantErr)
	}
	oc.verify(t, frames)
}

// chainedTask runs two tasks as one (the order checker plus the slow
// sink) so a single sequential stage can both verify order and throttle.
type chainedTask struct {
	Task
	also Task
}

func (c *chainedTask) Process(w *Worker, f *Frame) error {
	if err := c.Task.Process(w, f); err != nil {
		return err
	}
	return c.also.Process(w, f)
}

// TestSteadyStateFrameLoopAllocs pins the tentpole: once the pool's
// first lap is over, pushing a frame through the pipeline must not touch
// the allocator. Setup (rings, workers, results) is a per-run constant,
// so amortized over enough frames the budget is a small fraction of an
// allocation per frame; the old channel+&Frame{} path sat at ≥ 1.
func TestSteadyStateFrameLoopAllocs(t *testing.T) {
	tasks := []Task{
		timedTask("a", 0, 0, true),
		timedTask("b", 0, 0, true),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 2, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 5000
	if _, err := p.Run(64, nil); err != nil { // warm sleep/timer internals
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := p.Run(frames, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != frames {
		t.Fatalf("frames = %d, want %d", st.Frames, frames)
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / frames
	if perFrame > 0.5 {
		t.Fatalf("frame loop allocates %.3f objects/frame, want < 0.5 (steady state must be allocation-free)", perFrame)
	}
}

// TestRingPeriodMatchesDesim cross-checks the ring pipeline's measured
// steady-state period against the discrete-event simulator on the same
// chain and schedule. Wall-clock execution on a loaded CI box is noisy,
// so the tolerance is generous — this guards against structural errors
// (a serialized boundary, a lost pipeline overlap), not timer precision.
func TestRingPeriodMatchesDesim(t *testing.T) {
	ctasks := []core.Task{
		{Name: "t0", Weight: core.Weights(300, 300), Replicable: true},
		{Name: "t1", Weight: core.Weights(200, 200), Replicable: false},
	}
	chain, err := core.NewChain(ctasks)
	if err != nil {
		t.Fatal(err)
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 2, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	sim, err := desim.Simulate(chain, sol, desim.Config{Frames: 1000, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		timedTask("t0", 300, 300, true),
		timedTask("t1", 200, 200, false),
	}
	// TimeScale stretches the realized sleeps well past the box's timer
	// granularity; Stats de-scales the measured period back to modeled µs.
	p, err := New(tasks, sol, Options{QueueCap: 2, TimeScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeriodMicros <= 0 {
		t.Fatalf("no period measured: %+v", st)
	}
	if ratio := st.PeriodMicros / sim.Period; ratio < 0.5 || ratio > 2 {
		t.Fatalf("measured period %.1fµs vs simulated %.1fµs (ratio %.2f), want within 2x",
			st.PeriodMicros, sim.Period, ratio)
	}
}

// BenchmarkFrameHop is the steady-state cost of moving one frame across
// one boundary slot on one goroutine — acquire, stamp, enqueue, dequeue,
// release — in the shape the pipeline runs (pooled frame, SPSC ring) and
// in the shape it replaced (a fresh &Frame{} through a buffered channel).
// README's hot-path table and DESIGN.md §4j quote these two rows.
func BenchmarkFrameHop(b *testing.B) {
	b.Run("ring", func(b *testing.B) {
		pool := NewFramePool(8)
		q := ring.NewSPSC[*Frame](8)
		pool.Put(pool.Get()) // the first lap allocates; start past it
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := pool.Get()
			f.Seq = uint64(i)
			q.TryPush(f)
			if g, ok := q.TryPop(); ok {
				pool.Put(g)
			}
		}
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan *Frame, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ch <- &Frame{Seq: uint64(i)}
			<-ch
		}
	})
}

// BenchmarkFrameLoop is what one frame through Pipeline.Run costs when the
// tasks do nothing — pick-up, the clock reads, the hand-off and its
// waiting, the departure — on one stage (no boundary) and on two, with no
// sink and with every sink attached. It is the repository benchmark's
// stream_handoff workload beside the code; allocs/op is per run of 65 536
// frames. DESIGN.md §4j "What a frame costs" quotes these rows.
func BenchmarkFrameLoop(b *testing.B) {
	const frames = 1 << 16
	for _, stages := range []int{1, 2} {
		var tasks []Task
		var sol core.Solution
		for i := 0; i < stages; i++ {
			tasks = append(tasks, &FuncTask{TaskName: fmt.Sprintf("t%d", i), Fn: func(*Worker, *Frame) error { return nil }})
			sol.Stages = append(sol.Stages, core.Stage{Start: i, End: i, Cores: 1, Type: core.Big})
		}
		for _, sinks := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("s%d/%s", stages, sinks), func(b *testing.B) {
				b.ReportAllocs()
				var elapsed time.Duration
				for i := 0; i < b.N; i++ {
					opt, stop := Options{QueueCap: 2}, func() {}
					if sinks == "on" {
						opt, stop = attachAllSinks(opt)
					}
					p, err := New(tasks, sol, opt)
					if err != nil {
						b.Fatal(err)
					}
					st, err := p.Run(frames, nil)
					stop()
					if err != nil || st.Frames != frames {
						b.Fatalf("run: %v, %d frames", err, st.Frames)
					}
					elapsed += st.Elapsed
				}
				b.ReportMetric(float64(b.N)*frames/elapsed.Seconds(), "frames/s")
			})
		}
	}
}

// attachAllSinks adds what bench/frames.go:attachSinks adds to a run that
// the product still reads — a Sampler, a fresh Tracer and a goroutine that
// takes a Sampler snapshot every 100 ms; stop ends the goroutine and waits.
func attachAllSinks(opt Options) (_ Options, stop func()) {
	sampler := NewSampler(obs.NewRegistry())
	opt.Sampler, opt.Tracer = sampler, &Tracer{}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				sampler.Sample(now)
			}
		}
	}()
	return opt, func() { close(quit); <-done }
}
