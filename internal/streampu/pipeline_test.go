package streampu

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/core"
)

func timedTask(name string, wb, wl float64, rep bool) Task {
	return &TimedTask{TaskName: name, Weights: core.Weights(wb, wl), Rep: rep}
}

// orderCheck records the sequence numbers it sees and verifies order.
type orderCheck struct {
	mu   sync.Mutex
	seen []uint64
}

func (o *orderCheck) task() Task {
	return &FuncTask{TaskName: "order", Rep: false, Fn: func(w *Worker, f *Frame) error {
		o.mu.Lock()
		o.seen = append(o.seen, f.Seq)
		o.mu.Unlock()
		return nil
	}}
}

func (o *orderCheck) verify(t *testing.T, n int) {
	t.Helper()
	if len(o.seen) != n {
		t.Fatalf("saw %d frames, want %d", len(o.seen), n)
	}
	for i, s := range o.seen {
		if s != uint64(i) {
			t.Fatalf("frame order broken at position %d: seq %d", i, s)
		}
	}
}

func TestNewValidation(t *testing.T) {
	tasks := []Task{timedTask("a", 1, 2, true), timedTask("b", 1, 2, false)}
	if _, err := New(nil, core.Solution{}, Options{}); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := New(tasks, core.Solution{}, Options{}); err == nil {
		t.Error("empty solution accepted")
	}
	bad := []core.Solution{
		{Stages: []core.Stage{{Start: 1, End: 1, Cores: 1, Type: core.Big}}},                                               // gap
		{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}},                                               // incomplete
		{Stages: []core.Stage{{Start: 0, End: 1, Cores: 0, Type: core.Big}}},                                               // zero cores
		{Stages: []core.Stage{{Start: 0, End: 1, Cores: 2, Type: core.Big}}},                                               // replicated stateful
		{Stages: []core.Stage{{Start: 0, End: 3, Cores: 1, Type: core.Big}}},                                               // out of range
		{Stages: []core.Stage{{Start: 0, End: 1, Cores: 1, Type: core.Big}, {Start: 1, End: 1, Cores: 1, Type: core.Big}}}, // overlap
	}
	for i, sol := range bad {
		if _, err := New(tasks, sol, Options{}); err == nil {
			t.Errorf("bad solution %d accepted: %v", i, sol)
		}
	}
	good := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 3, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Little},
	}}
	if _, err := New(tasks, good, Options{}); err != nil {
		t.Errorf("good solution rejected: %v", err)
	}
}

func TestRunRejectsNonPositiveFrames(t *testing.T) {
	tasks := []Task{timedTask("a", 1, 1, true)}
	p, err := New(tasks, core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(0, nil); err == nil {
		t.Error("0 frames accepted")
	}
}

func TestSequentialPipelineProcessesAllFramesInOrder(t *testing.T) {
	oc := &orderCheck{}
	tasks := []Task{
		timedTask("work", 0, 0, true),
		oc.task(),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 100 || st.Errored != 0 {
		t.Fatalf("stats: %+v", st)
	}
	oc.verify(t, 100)
}

func TestReplicatedStagePreservesOrder(t *testing.T) {
	// A 4-replica stage feeding a sequential checker: order must hold.
	oc := &orderCheck{}
	tasks := []Task{
		timedTask("rep", 20, 20, true), // 20 µs modeled
		oc.task(),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 4, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 200 {
		t.Fatalf("frames = %d", st.Frames)
	}
	oc.verify(t, 200)
}

func TestChainedReplicatedStagesPreserveOrder(t *testing.T) {
	// Two consecutive replicated stages with co-prime replica counts —
	// the StreamPU v1.6.0 adaptor-chaining feature the paper required.
	oc := &orderCheck{}
	tasks := []Task{
		timedTask("rep1", 10, 10, true),
		timedTask("rep2", 10, 10, true),
		oc.task(),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 3, Type: core.Big},
		{Start: 1, End: 1, Cores: 2, Type: core.Little},
		{Start: 2, End: 2, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 300 || st.Errored != 0 {
		t.Fatalf("stats: %+v", st)
	}
	oc.verify(t, 300)
}

func TestErrorsPropagateAndAreCounted(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int64
	tasks := []Task{
		&FuncTask{TaskName: "fail-odd", Rep: true, Fn: func(w *Worker, f *Frame) error {
			if f.Seq%2 == 1 {
				return boom
			}
			return nil
		}},
		&FuncTask{TaskName: "count-bad", Rep: true, Fn: func(w *Worker, f *Frame) error {
			if f.Err != nil {
				after.Add(1)
			}
			return nil
		}},
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errored != 25 {
		t.Errorf("errored = %d, want 25", st.Errored)
	}
	if after.Load() != 25 {
		t.Errorf("downstream saw %d errored frames, want 25", after.Load())
	}
}

func TestSourcePopulatesFrames(t *testing.T) {
	var sum atomic.Int64
	tasks := []Task{
		&FuncTask{TaskName: "add", Rep: true, Fn: func(w *Worker, f *Frame) error {
			sum.Add(int64(f.Data.(int)))
			return nil
		}},
	}
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}}
	p, err := New(tasks, sol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(10, func(f *Frame) { f.Data = int(f.Seq) }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Errorf("sum = %d, want 45", sum.Load())
	}
}

func TestCloningPerReplica(t *testing.T) {
	// A clonable task with per-instance state: each replica must get its
	// own instance (no data races, distinct counters).
	type statefulRep struct {
		FuncTask
		count int
	}
	var mu sync.Mutex
	instances := map[*statefulRep]int{}
	newInst := func() *statefulRep {
		s := &statefulRep{}
		s.TaskName = "clonable"
		s.Rep = true
		s.Fn = func(w *Worker, f *Frame) error {
			s.count++
			mu.Lock()
			instances[s] = s.count
			mu.Unlock()
			return nil
		}
		return s
	}
	proto := newInst()
	cloneCount := 0
	protoTask := &cloneable{inner: proto, factory: func() Task { cloneCount++; return newInst() }}
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 3, Type: core.Big}}}
	p, err := New([]Task{protoTask}, sol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(90, nil); err != nil {
		t.Fatal(err)
	}
	if cloneCount != 3 {
		t.Errorf("cloned %d times, want 3 (one per replica)", cloneCount)
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, c := range instances {
		total += c
	}
	if total != 90 {
		t.Errorf("total processed %d, want 90", total)
	}
}

// cloneable wraps a task with an explicit clone factory for the test.
type cloneable struct {
	inner   Task
	factory func() Task
}

func (c *cloneable) Name() string                      { return c.inner.Name() }
func (c *cloneable) Replicable() bool                  { return true }
func (c *cloneable) Process(w *Worker, f *Frame) error { return c.inner.Process(w, f) }
func (c *cloneable) Clone() Task                       { return c.factory() }

func TestWorkerCoreTypesRespectLatencies(t *testing.T) {
	// One big stage (10 µs) and one little stage (40 µs): the little
	// stage bottlenecks; measured period must be near 40 µs (modeled)
	// with a 50× time scale (2 ms wall per frame, sleep-friendly).
	tasks := []Task{
		timedTask("fast-on-big", 10, 100, false),
		timedTask("slow-on-little", 1, 40, false),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 1, Cores: 1, Type: core.Little},
	}}
	p, err := New(tasks, sol, Options{TimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(120, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeriodMicros < 40 {
		t.Errorf("period %v µs below the 40 µs bottleneck", st.PeriodMicros)
	}
	if st.PeriodMicros > 40*1.6 {
		t.Errorf("period %v µs way above the 40 µs bottleneck", st.PeriodMicros)
	}
}

func TestReplicationIncreasesThroughput(t *testing.T) {
	// TimeScale 50 keeps the modeled latency (5 ms wall per frame) well
	// above scheduler/race-detector overheads on small CI machines; the
	// ideal gain is 4×, and anything below 2× would indicate replication
	// is broken rather than merely noisy.
	mk := func(cores int) float64 {
		tasks := []Task{timedTask("rep", 100, 100, true)}
		sol := core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: cores, Type: core.Big}}}
		p, err := New(tasks, sol, Options{TimeScale: 50})
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.FPS
	}
	f1 := mk(1)
	f4 := mk(4)
	if f4 < f1*2 {
		t.Errorf("4-way replication only improved FPS from %.0f to %.0f (< 2×)", f1, f4)
	}
}

func TestProfileRecoversModeledWeights(t *testing.T) {
	tasks := []Task{
		timedTask("a", 30, 120, false),
		timedTask("b", 60, 90, true),
	}
	// Every settle overshoots its deadline by a host-dependent amount —
	// ~0.2 ms on an idle 2-vCPU box, 0.6–0.8 ms beside CPU-bound
	// neighbours — so the scale makes the smallest modeled latency a 3 ms
	// sleep, and the frame count is what keeps the test at ~0.4 s.
	prof, err := ProfileTypes(tasks, 2, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		v    core.CoreType
		i    int
		want float64
	}{
		{core.Big, 0, 30}, {core.Big, 1, 60},
		{core.Little, 0, 120}, {core.Little, 1, 90},
	}
	for _, c := range checks {
		got := prof[c.v][c.i]
		if got < c.want || got > c.want*1.8 {
			t.Errorf("profile[%v][%d] = %.1f µs, want ≈%v (sleep overshoot allowed)",
				c.v, c.i, got, c.want)
		}
	}
}

func TestRunChain(t *testing.T) {
	var n atomic.Int64
	tasks := []Task{
		&FuncTask{TaskName: "count", Rep: false, Fn: func(w *Worker, f *Frame) error {
			n.Add(1)
			return nil
		}},
	}
	st, err := RunChain(tasks, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 25 || n.Load() != 25 {
		t.Errorf("RunChain processed %d/%d", st.Frames, n.Load())
	}
}

// ModelFromTimed derives the scheduling model from latency-modeled tasks.
// It fails if any task is not a *TimedTask.
func ModelFromTimed(tasks []Task) (*core.Chain, error) {
	model := make([]core.Task, len(tasks))
	for i, t := range tasks {
		tt, ok := t.(*TimedTask)
		if !ok {
			return nil, fmt.Errorf("streampu: task %d (%s) is not latency-modeled", i, t.Name())
		}
		model[i] = core.Task{Name: tt.TaskName, Weight: tt.Weights, Replicable: tt.Rep}
	}
	return core.NewChain(model)
}

func TestModelFromTimed(t *testing.T) {
	tasks := []Task{timedTask("a", 3, 6, true), timedTask("b", 4, 8, false)}
	c, err := ModelFromTimed(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.TotalW(core.Big) != 7 || c.TotalW(core.Little) != 14 {
		t.Errorf("model chain wrong: %+v", c.Tasks())
	}
	mixed := []Task{timedTask("a", 3, 6, true), &FuncTask{TaskName: "f"}}
	if _, err := ModelFromTimed(mixed); err == nil {
		t.Error("non-timed task accepted")
	}
}

func TestModelChain(t *testing.T) {
	tasks := []Task{&FuncTask{TaskName: "x", Rep: true}, &FuncTask{TaskName: "y", Rep: false}}
	c, err := ModelChain(tasks, func(i int, t Task) []float64 {
		w := float64(i + 1)
		return core.Weights(w, 2*w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || !c.Task(0).Replicable || c.Task(1).Replicable {
		t.Errorf("model chain: %+v", c.Tasks())
	}
	if c.Task(1).W(core.Little) != 4 {
		t.Errorf("profile not applied: %+v", c.Task(1))
	}
}

// TestWaitAccumulatesDebtAndSettles drives a Worker built outside Run:
// it has no clock, so Settle spins the whole wait.
func TestWaitAccumulatesDebtAndSettles(t *testing.T) {
	w := &Worker{Core: core.Big, Scale: 1}
	w.Wait(0)
	w.Settle(time.Now()) // zero debt: must return immediately
	w.Wait(100)
	w.Wait(-5) // negative waits are ignored
	w.Wait(200)
	start := time.Now()
	w.Settle(start)
	if got := time.Since(start); got < 300*time.Microsecond {
		t.Errorf("settled after %v, want ≥ 300µs", got)
	}
	// Debt is cleared by Settle.
	s2 := time.Now()
	w.Settle(s2)
	if got := time.Since(s2); got > 200*time.Microsecond {
		t.Errorf("second settle took %v, debt not cleared", got)
	}
}

// TestSettleCountsFromPickup pins what Settle means when no sink asks for
// the pick-up time: a frame that computes for ~2 ms and then waits a
// modeled 3 ms occupies its stage for 3 ms, not 5 — the deadline counts
// from pick-up, so compute overlaps the modeled latency. The worker starts
// reading the clock only once a frame leaves debt behind; the second case
// has the first Wait arrive on frame 10, and every frame after the one
// that flipped the switch must settle from its pick-up too. Medians over
// 19 frames and generous bounds: one host stall must not fail it.
func TestSettleCountsFromPickup(t *testing.T) {
	for _, firstWait := range []uint64{0, 10} {
		frames := int(firstWait) + 22
		entered := make([]time.Time, frames)
		task := &FuncTask{TaskName: "work+wait", Fn: func(w *Worker, f *Frame) error {
			entered[f.Seq] = time.Now()
			for time.Since(entered[f.Seq]) < 2*time.Millisecond {
			}
			if f.Seq >= firstWait {
				w.Wait(3000)
			}
			return nil
		}}
		if _, err := RunChain([]Task{task}, frames, nil); err != nil {
			t.Fatal(err)
		}
		var spent []time.Duration
		for k := int(firstWait) + 2; k <= int(firstWait)+20; k++ {
			spent = append(spent, entered[k+1].Sub(entered[k]))
		}
		sort.Slice(spent, func(i, j int) bool { return spent[i] < spent[j] })
		if med := spent[len(spent)/2]; med < 3*time.Millisecond || med >= 4500*time.Microsecond {
			t.Errorf("first Wait on frame %d: median stage time %v, want in [3ms, 4.5ms) (5ms is a settle counted from the end of compute)", firstWait, med)
		}
	}
}

func TestStatsThroughput(t *testing.T) {
	s := Stats{FPS: 1000}
	if got := s.Throughput(4); got != 4000 {
		t.Errorf("Throughput = %v", got)
	}
}

func TestManyStagePipelineSmoke(t *testing.T) {
	// A longer mixed pipeline shaped like the DVB-S2 schedules.
	var tasks []Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, timedTask(fmt.Sprintf("t%d", i), 5, 15, i%2 == 0))
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 2, Cores: 1, Type: core.Big},
		{Start: 3, End: 5, Cores: 1, Type: core.Little},
		{Start: 6, End: 6, Cores: 3, Type: core.Big},
		{Start: 7, End: 9, Cores: 1, Type: core.Big},
	}}
	// Stage [6,6] replicates task 6 (replicable, i%2==0). Stage limits ok.
	p, err := New(tasks, sol, Options{TimeScale: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 80 || st.Errored != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if math.IsNaN(st.PeriodMicros) || st.PeriodMicros <= 0 {
		t.Errorf("period = %v", st.PeriodMicros)
	}
}

// TestPipelineBackpressure holds the sink shut and checks that the source
// stops at the in-flight bound (one frame in the sink, QueueCap in the
// boundary, one blocked in the source's send), then opens it: every frame
// arrives, in order.
func TestPipelineBackpressure(t *testing.T) {
	const frames, queueCap = 8, 1
	var picked atomic.Int64
	gate := make(chan struct{})
	oc := &orderCheck{}
	tasks := []Task{
		&FuncTask{TaskName: "count", Rep: true, Fn: func(w *Worker, f *Frame) error {
			picked.Add(1)
			return nil
		}},
		&FuncTask{TaskName: "gate", Rep: false, Fn: func(w *Worker, f *Frame) error {
			<-gate
			return nil
		}},
		oc.task(),
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 2, Cores: 1, Type: core.Big},
	}}
	p, err := New(tasks, sol, Options{QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := p.Run(frames, nil)
		done <- result{st, err}
	}()
	const bound = 1 + queueCap + 1
	for deadline := time.Now().Add(5 * time.Second); picked.Load() < bound && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a source that ignores the bound to run on
	if n := picked.Load(); n != bound {
		t.Errorf("source processed %d frames while the sink was shut, want %d", n, bound)
	}
	close(gate)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.st.Frames != frames || res.st.Errored != 0 {
		t.Fatalf("stats: %+v", res.st)
	}
	oc.verify(t, frames)
}
