package streampu

import (
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"

	"ampsched/internal/core"
)

func TestClockHeapPopsInDeadlineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Now()
	var c clock
	var want []time.Time
	for i := 0; i < 500; i++ {
		at := base.Add(time.Duration(rng.Intn(1000)) * time.Microsecond) // ties included
		want = append(want, at)
		c.push(parked{at: at})
		if i%7 == 6 { // interleave pops with pushes
			sort.Slice(want, func(a, b int) bool { return want[a].Before(want[b]) })
			if got := c.pop().at; !got.Equal(want[0]) {
				t.Fatalf("pop after %d pushes: %v, want %v", i+1, got.Sub(base), want[0].Sub(base))
			}
			want = want[1:]
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a].Before(want[b]) })
	for i, w := range want {
		if got := c.pop().at; !got.Equal(w) {
			t.Fatalf("final pop %d: %v, want %v", i, got.Sub(base), w.Sub(base))
		}
	}
	if len(c.q) != 0 {
		t.Fatalf("%d entries left", len(c.q))
	}
}

// TestClockWakesInDeadlineOrder parks many settles with random deadlines on
// one clock. Every one returns no earlier than its deadline, and each is
// woken in deadline order: when a worker wakes, no deadline earlier than
// its own is still parked. Checking the heap rather than the order in
// which workers return keeps the test independent of how late a loaded
// host runs them.
func TestClockWakesInDeadlineOrder(t *testing.T) {
	const n = 48
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	var c clock
	defer c.stop()
	// Deadlines 100–120 ms out, so that every worker has parked before the
	// first one is due.
	debts := make([]float64, n) // µs
	for i := range debts {
		debts[i] = 100000 + float64(rng.Intn(20000))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{Core: core.Big, Scale: 1, clk: &c}
			w.Wait(debts[i])
			w.Settle(start)
			deadline := start.Add(time.Duration(debts[i] * float64(time.Microsecond)))
			if early := deadline.Sub(time.Now()); early > 0 {
				t.Errorf("seed %d: settle of %.0f µs returned %v early", seed, debts[i], early)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, e := range c.q {
				if e.at.Before(deadline) {
					t.Errorf("seed %d: %.0f µs woken while %v µs is still parked", seed, debts[i], e.at.Sub(start).Microseconds())
				}
			}
		}(i)
	}
	for parked := 0; parked < n; {
		if time.Since(start) > 100*time.Millisecond {
			t.Errorf("only %d of %d workers parked before the first deadline", parked, n)
			break
		}
		runtime.Gosched()
		c.mu.Lock()
		parked = len(c.q)
		c.mu.Unlock()
	}
	wg.Wait()
}

// TestClockNearerDeadlineInterruptsCoarseWait parks a deadline 200 ms out,
// so the clock sleeps on its runtime timer, and then one 10 ms out: the
// nearer one must not wait for the timer, and returns within 2 ms of its
// deadline.
func TestClockNearerDeadlineInterruptsCoarseWait(t *testing.T) {
	var c clock
	defer c.stop()
	far := make(chan struct{})
	go func() {
		defer close(far)
		w := &Worker{Core: core.Big, Scale: 1, clk: &c}
		w.Wait(200000)
		w.Settle(time.Now())
	}()
	for parked := false; !parked; {
		runtime.Gosched()
		c.mu.Lock()
		parked = len(c.q) == 1
		c.mu.Unlock()
	}
	w := &Worker{Core: core.Big, Scale: 1, clk: &c}
	w.Wait(10000)
	start := time.Now()
	w.Settle(start)
	if late := time.Since(start) - 10*time.Millisecond; late > 2*time.Millisecond {
		t.Errorf("nearer deadline returned %v late", late)
	}
	<-far
}

// TestClockRunLeavesNoGoroutinesAndFewThreads runs a 20-worker latency-
// modeled pipeline. The clock's goroutine is gone when Run returns, and the
// run adds at most 2 OS threads: only the clock sleeps in a syscall, where
// 20 workers sleeping in their own syscalls would add one thread each.
func TestClockRunLeavesNoGoroutinesAndFewThreads(t *testing.T) {
	model := make([]core.Task, 4)
	for i := range model {
		model[i] = core.Task{Name: "t", Weight: core.Weights(100, 100), Replicable: i == 1 || i == 2}
	}
	model[1].Weight = core.Weights(900, 900)
	model[2].Weight = core.Weights(900, 900)
	chain, err := core.NewChain(model)
	if err != nil {
		t.Fatal(err)
	}
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 0, Cores: 1, Type: core.Big},
		{Start: 1, End: 2, Cores: 18, Type: core.Big},
		{Start: 3, End: 3, Cores: 1, Type: core.Big},
	}}
	p, err := New(TimedChain(chain), sol, Options{TimeScale: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Give every P its thread first, so that only what the run itself
	// blocks in the kernel can add one.
	var busy sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		busy.Add(1)
		go func() {
			defer busy.Done()
			for end := time.Now().Add(5 * time.Millisecond); time.Now().Before(end); {
			}
		}()
	}
	busy.Wait()
	goroutines := runtime.NumGoroutine()
	threads := pprof.Lookup("threadcreate").Count()

	st, err := p.Run(100, nil)
	if err != nil || st.Frames != 100 {
		t.Fatalf("run: %+v, %v", st, err)
	}
	if grew := pprof.Lookup("threadcreate").Count() - threads; grew > 2 {
		t.Errorf("the run created %d OS threads, want at most 2", grew)
	}
	// An exited worker's goroutine is counted until it is gone: wait for
	// that. (Fewer than before is a goroutine of an earlier test ending.)
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(end); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Run, %d before", n, goroutines)
	}
}

func TestClockSettleAllocatesNothing(t *testing.T) {
	var c clock
	defer c.stop()
	w := &Worker{Core: core.Big, Scale: 1, clk: &c}
	// The first lap starts the clock and makes the worker's wake channel.
	if n := testing.AllocsPerRun(20, func() {
		w.Wait(500)
		w.Settle(time.Now())
	}); n != 0 {
		t.Errorf("Settle on a running clock: %v allocs, want 0", n)
	}
}

// TestClockZeroWorkRunAllocs pins a run whose tasks never Wait to 11
// allocations: the clock lives in an allocation the run already makes and
// starts nothing. The warm-up index is assigned once, so the worker
// closure captures it by value instead of moving it to the heap (a
// reassigned warm-up cost a twelfth allocation).
func TestClockZeroWorkRunAllocs(t *testing.T) {
	task := &FuncTask{TaskName: "nop", Fn: func(*Worker, *Frame) error { return nil }}
	p, err := New([]Task{task}, core.Solution{Stages: []core.Stage{{Start: 0, End: 0, Cores: 1, Type: core.Big}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { p.Run(256, nil) }); n != 11 {
		t.Errorf("zero-work Run: %v allocs, want 11", n)
	}
}
