package ampsched_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/streampu"
)

// The dynamic executor is the baseline the paper's related-work section
// argues against ("dynamic schedulers from current runtime systems are
// usually inefficient at our task granularity of tens to thousands of
// µs", §II). Instead of a static interval mapping, a pool of workers pulls
// (frame, task) work items from a central ready queue, GNU-Radio /
// generic-runtime style. Stateful tasks are serialized and executed in
// frame order through per-task sequence gates; stateless tasks run
// wherever a worker is free. It lives here, beside the one benchmark that
// compares it with the static streampu.Pipeline, and is not part of the
// runtime.

// The ablation's pool: four big cores behind a ready queue of four slots
// per worker.
const (
	dynamicWorkers  = 4
	dynamicQueueCap = 4 * dynamicWorkers
)

// workItem is one schedulable unit: one task applied to one frame.
type workItem struct {
	frame *streampu.Frame
	task  int
}

// taskGate serializes a stateful task and releases its work in frame
// order.
type taskGate struct {
	mu      sync.Mutex
	next    uint64
	pending map[uint64]*streampu.Frame
}

// runDynamic runs the chain over frames frames on the dynamically
// scheduled pool and reports how many frames finished and how many of
// them with an error.
func runDynamic(tasks []streampu.Task, frames int) (finished, errored int) {
	gates := make([]*taskGate, len(tasks))
	for i, t := range tasks {
		if !t.Replicable() {
			gates[i] = &taskGate{pending: map[uint64]*streampu.Frame{}}
		}
	}

	ready := make(chan workItem, dynamicQueueCap)
	var wg sync.WaitGroup
	var done, failed atomic.Int64
	finish := make(chan struct{})
	finishFrame := func(f *streampu.Frame) {
		if f.Err != nil {
			failed.Add(1)
		}
		if done.Add(1) == int64(frames) {
			close(finish)
		}
	}

	// offer hands a frame to task ti, honoring stateful ordering: out-of-
	// order frames park in the gate until their turn. ti is always a real
	// task index — workers complete final-stage frames inline.
	offer := func(f *streampu.Frame, ti int) {
		g := gates[ti]
		if g == nil {
			ready <- workItem{frame: f, task: ti}
			return
		}
		g.mu.Lock()
		if f.Seq != g.next {
			g.pending[f.Seq] = f
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
		ready <- workItem{frame: f, task: ti}
	}

	// release advances a stateful task's gate after it processed a frame,
	// freeing the next in-order frame if it is already waiting.
	release := func(ti int) {
		g := gates[ti]
		if g == nil {
			return
		}
		g.mu.Lock()
		g.next++
		nf, ok := g.pending[g.next]
		if ok {
			delete(g.pending, g.next)
		}
		g.mu.Unlock()
		if ok {
			ready <- workItem{frame: nf, task: ti}
		}
	}

	for w := 0; w < dynamicWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := &streampu.Worker{Core: core.Big, Scale: 1}
			for item := range ready {
				t0 := time.Now()
				if err := tasks[item.task].Process(wctx, item.frame); err != nil && item.frame.Err == nil {
					item.frame.Err = fmt.Errorf("%s: %w", tasks[item.task].Name(), err)
				}
				wctx.Settle(t0)
				release(item.task)
				if next := item.task + 1; next == len(tasks) {
					// Completing a frame never blocks, so do it inline
					// instead of paying a goroutine spawn per item.
					finishFrame(item.frame)
				} else {
					// Handing to the next task may block on the bounded
					// ready queue; a fresh goroutine keeps this worker
					// free to drain it (the classic re-enqueue deadlock).
					go offer(item.frame, next)
				}
			}
		}()
	}

	go func() {
		for seq := uint64(0); seq < uint64(frames); seq++ {
			offer(&streampu.Frame{Seq: seq}, 0)
		}
	}()
	<-finish
	close(ready)
	wg.Wait()
	return int(done.Load()), int(failed.Load())
}

// BenchmarkAblationStaticVsDynamic compares the static interval-mapped
// pipeline against the dynamic central-queue executor on a chain of
// zero-latency tasks: with no modeled work, the measured time is pure
// per-frame scheduling overhead — the §II argument for static schedules
// at tens-of-µs task granularity.
func BenchmarkAblationStaticVsDynamic(b *testing.B) {
	mkTasks := func(n int) []streampu.Task {
		var out []streampu.Task
		for i := 0; i < n; i++ {
			out = append(out, &streampu.TimedTask{TaskName: fmt.Sprintf("t%d", i), Weights: core.Weights(0, 0), Rep: true})
		}
		return out
	}
	for _, n := range []int{8, 16} {
		tasks := mkTasks(n)
		sol := core.Solution{Stages: []core.Stage{{Start: 0, End: n - 1, Cores: dynamicWorkers, Type: core.Big}}}
		b.Run(fmt.Sprintf("static/tasks=%d", n), func(b *testing.B) {
			p, err := streampu.New(tasks, sol, streampu.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			st, err := p.Run(b.N, nil)
			if err != nil || st.Frames != b.N {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("dynamic/tasks=%d", n), func(b *testing.B) {
			if finished, _ := runDynamic(tasks, b.N); finished != b.N {
				b.Fatalf("%d of %d frames finished", finished, b.N)
			}
		})
	}
}

// TestDynamicStatefulTasksRunInOrder holds the baseline to the one rule
// that makes the comparison fair: a stateful task sees frames strictly in
// sequence order although the replicable task before it finishes them out
// of order across the pool.
func TestDynamicStatefulTasksRunInOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []uint64
	tasks := []streampu.Task{
		&streampu.TimedTask{TaskName: "jitter", Weights: core.Weights(3, 3), Rep: true},
		&streampu.FuncTask{TaskName: "stateful", Rep: false, Fn: func(w *streampu.Worker, f *streampu.Frame) error {
			mu.Lock()
			seen = append(seen, f.Seq)
			mu.Unlock()
			return nil
		}},
		&streampu.TimedTask{TaskName: "tail", Weights: core.Weights(1, 1), Rep: true},
	}
	const frames = 200
	if finished, errored := runDynamic(tasks, frames); finished != frames || errored != 0 {
		t.Fatalf("%d frames finished, %d with an error; want %d and 0", finished, errored, frames)
	}
	if len(seen) != frames {
		t.Fatalf("stateful task saw %d frames, want %d", len(seen), frames)
	}
	for i, s := range seen {
		if s != uint64(i) {
			t.Fatalf("stateful order broken at %d: seq %d", i, s)
		}
	}
}
