// Package streampu is a Go re-implementation of the scheduling-relevant
// core of StreamPU, the DSEL/runtime system the paper targets: a streaming
// task-chain runtime with interval-mapped pipeline stages, stage
// replication for stateless intervals, order-preserving round-robin
// adaptors, and adaptor chaining between two consecutive replicated stages
// (the extension released in StreamPU v1.6.0 for the paper's schedules).
//
// Heterogeneous big/little cores are virtualized: every pipeline worker is
// bound to a virtual core of a given type, and latency-modeled tasks
// realize their type-dependent latency by parking on the run's clock
// (oversubscription-safe on machines with fewer physical cores than the
// modeled platform). Real computational tasks (e.g. internal/dvbs2) simply
// run their code.
package streampu

import (
	"fmt"
	"time"

	"ampsched/internal/core"
)

// Frame is one unit of streaming data flowing through the pipeline.
//
// Frames are recycled: when a frame leaves the last stage the runtime
// returns it to a FramePool, and the source reuses it for a later
// sequence number. Tasks therefore must not retain a *Frame past their
// Process call. Recycling resets Err and reassigns Seq but deliberately
// keeps Data, so chains that lazily allocate their payload
// ("if f.Data == nil { ... }") touch the allocator only on the pool's
// first lap — see FramePool for the full ownership contract.
type Frame struct {
	// Seq is the frame's sequence number, assigned by the pipeline source
	// starting at 0. Replication adaptors preserve sequence order.
	Seq uint64
	// Data carries the task-chain-specific payload. Preserved across
	// recycling: on a reused frame it holds the payload of the previous
	// frame this allocation carried.
	Data any
	// Err records a processing failure; subsequent tasks may inspect it
	// and the runtime counts frames that finish with a non-nil Err.
	Err error
}

// Worker describes the execution context a task runs in: the virtual core
// the worker is bound to and the runtime's time scale.
type Worker struct {
	// Core is the virtual core type (big or little) of this worker.
	Core core.CoreType
	// Scale multiplies modeled latencies before they are realized in wall
	// time (a scale of 10 turns a 100 µs modeled latency into 1 ms).
	Scale float64

	// debt is the modeled latency (µs) accumulated by Wait and not yet
	// realized in wall time; the runtime settles it per frame.
	debt float64
	// clk is the run's clock (nil on a Worker built outside Run); wake is
	// this worker's channel on it, made on its first park.
	clk  *clock
	wake chan struct{}
}

// Wait schedules a modeled latency (in the task-weight unit, µs) on this
// worker. The latency is not realized immediately: it accumulates as debt
// that the runtime settles once per frame (or per task when profiling)
// with a single absolute-deadline sleep, so coarse OS sleep granularity
// does not accumulate per task. The deadline counts from the frame's
// pick-up, so a task's compute overlaps the latency it models; a worker
// whose tasks never Wait never reads the clock for it, and the first frame
// that does is the one exception — it counts from the end of its compute.
func (w *Worker) Wait(micros float64) {
	if micros > 0 {
		w.debt += micros
	}
}

// Settle realizes the accumulated latency debt relative to the given
// start time: it blocks until start + scaled debt, and returns at once,
// start unread, when there is none. Inside Run the worker parks the
// absolute deadline on the run's clock and spins only the few tens of µs
// the clock wakes it early, so the deadline is met to within a clock read
// or two, far below the OS sleep quantum. A Worker built outside Run has
// no clock and spins the whole wait.
func (w *Worker) Settle(start time.Time) {
	if w.debt <= 0 {
		return
	}
	d := time.Duration(w.debt * w.Scale * float64(time.Microsecond))
	w.debt = 0
	deadline := start.Add(d)
	if w.clk != nil {
		w.clk.wait(deadline, &w.wake)
	}
	for time.Now().Before(deadline) {
	}
}

// Task is one processing step of a streaming chain.
type Task interface {
	// Name identifies the task in profiles and traces.
	Name() string
	// Replicable reports whether the task is stateless and may be
	// replicated (cloned) across the workers of a stage.
	Replicable() bool
	// Process handles one frame on the given worker.
	Process(w *Worker, f *Frame) error
}

// Cloner is implemented by replicable tasks that carry per-instance
// scratch state (buffers, decoders): the runtime clones one instance per
// replica worker. Replicable tasks without Clone are shared across
// replicas and must be safe for concurrent use.
type Cloner interface {
	Clone() Task
}

// cloneFor returns the task instance to use on one replica worker.
func cloneFor(t Task) Task {
	if c, ok := t.(Cloner); ok {
		return c.Clone()
	}
	return t
}

// TimedTask is a latency-modeled task: Process waits for the task's
// type-dependent weight on the worker's virtual core. It is the vehicle
// for replaying the paper's Table III profiles on machines that do not
// have heterogeneous cores.
type TimedTask struct {
	TaskName string
	Weights  []float64 // modeled latency per core type, µs
	Rep      bool
}

// Timed builds a TimedTask from a model task.
func Timed(t core.Task) *TimedTask {
	return &TimedTask{TaskName: t.Name, Weights: t.Weight, Rep: t.Replicable}
}

// TimedChain converts a whole model chain into latency-modeled tasks.
func TimedChain(c *core.Chain) []Task {
	out := make([]Task, c.Len())
	for i := 0; i < c.Len(); i++ {
		out[i] = Timed(c.Task(i))
	}
	return out
}

// Name implements Task.
func (t *TimedTask) Name() string { return t.TaskName }

// Replicable implements Task.
func (t *TimedTask) Replicable() bool { return t.Rep }

// Process implements Task by waiting for the modeled latency on the
// worker's core type.
func (t *TimedTask) Process(w *Worker, f *Frame) error {
	t.validateCore(w.Core)
	w.Wait(t.Weights[w.Core])
	return nil
}

func (t *TimedTask) validateCore(v core.CoreType) {
	if int(v) >= len(t.Weights) {
		panic(fmt.Sprintf("streampu: invalid core type %d for task %s", v, t.TaskName))
	}
}

// FuncTask wraps an ordinary function as a Task; handy for sources, sinks
// and small glue steps in examples and tests.
type FuncTask struct {
	TaskName string
	Rep      bool
	Fn       func(w *Worker, f *Frame) error
}

// Name implements Task.
func (t *FuncTask) Name() string { return t.TaskName }

// Replicable implements Task.
func (t *FuncTask) Replicable() bool { return t.Rep }

// Process implements Task.
func (t *FuncTask) Process(w *Worker, f *Frame) error { return t.Fn(w, f) }

// ModelChain derives the scheduling model (a core.Chain) from a task list
// and a latency profile: profile(i, task) must return the task's weights.
// Real computational chains use measured profiles (see Profile in this
// package); latency-modeled chains use their embedded weights.
func ModelChain(tasks []Task, profile func(i int, t Task) []float64) (*core.Chain, error) {
	model := make([]core.Task, len(tasks))
	for i, t := range tasks {
		model[i] = core.Task{Name: t.Name(), Weight: profile(i, t), Replicable: t.Replicable()}
	}
	return core.NewChain(model)
}
