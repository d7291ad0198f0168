package ring

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// length is the number of queued elements, exact while neither side is
// mid-operation.
func (q *SPSC[T]) length() int { return int(q.tail.Load() - q.head.Load()) }

func TestCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	} {
		if got := len(NewSPSC[int](c.in).buf); got != c.want {
			t.Errorf("len(NewSPSC(%d).buf) = %d, want %d", c.in, got, c.want)
		}
	}
	// MPMC has a hard minimum of 2 (see NewMPMC).
	for _, c := range []struct{ in, want int }{
		{-3, 2}, {0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {1000, 1024},
	} {
		if got := len(NewMPMC[int](c.in).buf); got != c.want {
			t.Errorf("len(NewMPMC(%d).buf) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSPSCFIFOAndBounds(t *testing.T) {
	q := NewSPSC[int](4)
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d rejected with room available", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push into a full queue succeeded")
	}
	if q.length() != 4 {
		t.Fatalf("Len = %d, want 4", q.length())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from a drained queue succeeded")
	}
}

func TestSPSCCloseDrain(t *testing.T) {
	q := NewSPSC[int](8)
	q.TryPush(1)
	q.TryPush(2)
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	// Queued elements survive the close.
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("pop after close = (%d, %v)", v, ok)
	}
	if v, ok := q.TryPop(); !ok || v != 2 {
		t.Fatalf("pop after close = (%d, %v)", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("drained closed queue still pops")
	}
}

// TestSPSCConcurrentTransfer is the -race workhorse: one producer
// streams a long ascending sequence to one consumer through a tiny ring,
// so the indices wrap thousands of times and every slot hand-off is
// exercised under contention.
func TestSPSCConcurrentTransfer(t *testing.T) {
	const n = 1 << 17
	q := NewSPSC[int](8)
	done := make(chan error, 1)
	go func() {
		last := -1
		for got := 0; got < n; {
			v, ok := q.TryPop()
			if !ok {
				runtime.Gosched() // single-core CI: let the producer run
				continue
			}
			if v != last+1 {
				done <- fmt.Errorf("out of order: got %d after %d", v, last)
				return
			}
			last = v
			got++
		}
		done <- nil
	}()
	for i := 0; i < n; {
		if q.TryPush(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMPMCFIFOAndBounds(t *testing.T) {
	q := NewMPMC[int](4)
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d rejected with room available", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push into a full queue succeeded")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from a drained queue succeeded")
	}
}

// TestMPMCConcurrentTransfer hammers the queue with several producers
// and consumers and checks that every pushed value arrives exactly once.
func TestMPMCConcurrentTransfer(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 1 << 14
	)
	q := NewMPMC[int](16)
	seen := make([]atomic.Int32, producers*perProd)
	var popped atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for popped.Load() < producers*perProd {
				v, ok := q.TryPop()
				if !ok {
					runtime.Gosched()
					continue
				}
				seen[v].Add(1)
				popped.Add(1)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perProd; {
				if q.TryPush(p*perProd + i) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(p)
	}
	pwg.Wait()
	wg.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("value %d delivered %d times, want exactly once", i, c)
		}
	}
}

// TestWraparoundNearUint64Max restarts both queues with cursors a few
// steps below the uint64 overflow point and pushes enough elements to
// carry the indices across it: the masked slot arithmetic and the
// full/empty difference tests must hold straight through the wrap.
func TestWraparoundNearUint64Max(t *testing.T) {
	base := uint64(math.MaxUint64) - 5
	s := NewSPSC[int](4)
	s.resetAt(base)
	for i := 0; i < 64; i++ {
		if !s.TryPush(i) {
			t.Fatalf("SPSC push %d rejected near wraparound", i)
		}
		if s.TryPush(-1) && s.length() > len(s.buf) {
			t.Fatalf("SPSC overfilled at step %d", i)
		}
		v, ok := s.TryPop()
		if !ok || v != i {
			t.Fatalf("SPSC pop %d = (%d, %v) near wraparound", i, v, ok)
		}
		// Drain the probe element if the second push got in.
		for s.length() > 0 {
			s.TryPop()
		}
	}

	m := NewMPMC[int](4)
	m.resetAt(base)
	for i := 0; i < 64; i++ {
		if !m.TryPush(i) {
			t.Fatalf("MPMC push %d rejected near wraparound", i)
		}
		v, ok := m.TryPop()
		if !ok || v != i {
			t.Fatalf("MPMC pop %d = (%d, %v) near wraparound", i, v, ok)
		}
	}
}

// TestRingOpsAllocateNothing pins the hand-off primitives under the
// pipeline's frame loop: a push+pop round trip of a pointer payload — the
// shape of streampu's *Frame — through the SPSC boundary queue and the
// MPMC free list never touches the allocator.
func TestRingOpsAllocateNothing(t *testing.T) {
	type frame struct {
		seq  uint64
		data any
		err  error
	}
	f := &frame{}
	s := NewSPSC[*frame](8)
	if n := testing.AllocsPerRun(1000, func() {
		s.TryPush(f)
		s.TryPop()
	}); n != 0 {
		t.Errorf("SPSC push+pop allocates %v per round trip, want 0", n)
	}
	m := NewMPMC[*frame](8)
	if n := testing.AllocsPerRun(1000, func() {
		m.TryPush(f)
		m.TryPop()
	}); n != 0 {
		t.Errorf("MPMC push+pop allocates %v per round trip, want 0", n)
	}
}
