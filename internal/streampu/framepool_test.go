package streampu

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestFramePoolRecyclesAndResets(t *testing.T) {
	p := NewFramePool(4)
	f := p.Get()
	payload := &struct{ n int }{n: 42}
	f.Seq = 7
	f.Data = payload
	f.Err = errors.New("boom")
	p.Put(f)

	g := p.Get()
	if g != f {
		t.Fatal("pool did not recycle the returned frame")
	}
	if g.Err != nil {
		t.Fatalf("recycled frame carries Err %v, want nil", g.Err)
	}
	if g.Data != any(payload) {
		t.Fatal("recycled frame lost its Data payload (contract: Data is preserved)")
	}
}

func TestFramePoolNilSafe(t *testing.T) {
	var p *FramePool
	f := p.Get()
	if f == nil {
		t.Fatal("nil pool Get returned nil frame")
	}
	p.Put(f) // no-op, must not panic
	p = NewFramePool(2)
	p.Put(nil) // nil frame is a no-op
	if p.Get() == nil {
		t.Fatal("Get returned nil after Put(nil)")
	}
}

func TestFramePoolOverflowDropsFrames(t *testing.T) {
	p := NewFramePool(2)
	released := map[*Frame]bool{}
	for i := 0; i < 16; i++ {
		released[p.Get()] = true // an empty ring allocates
	}
	if len(released) != 16 {
		t.Fatalf("16 Gets on an empty pool returned %d distinct frames", len(released))
	}
	for f := range released {
		p.Put(f) // more than the free list holds: the surplus is dropped
	}
	retained := 0
	for i := 0; i < 16; i++ {
		f := p.Get()
		if f == nil {
			t.Fatalf("Get %d returned nil after overflow", i)
		}
		if released[f] {
			retained++
		}
	}
	if retained != 2 {
		t.Fatalf("a pool of capacity 2 handed back %d of 16 released frames, want 2", retained)
	}
}

type fatPayload struct{ buf [1 << 16]byte }

// abandonedPool builds a pool, takes it through a first-lap miss and a
// recycle, hangs a payload on the recycled frame and drops every
// reference; collected is closed when the payload is finalized.
//
//go:noinline
func abandonedPool(collected chan struct{}) {
	p := NewFramePool(4)
	f := p.Get()
	data := &fatPayload{}
	runtime.SetFinalizer(data, func(*fatPayload) { close(collected) })
	f.Data = data
	p.Put(f)
}

func TestFramePoolCollectableAfterOneGC(t *testing.T) {
	// A pipeline's pool holds its frames and, through Frame.Data, every
	// payload buffer the chain recycles. Once the pipeline is gone one
	// collection must free all of it: anything that registers the pool
	// with the runtime (a sync.Pool field did) keeps it a cycle longer,
	// which is a frame pool's worth of dead buffers on the live heap of
	// whoever runs pipelines back to back.
	collected := make(chan struct{})
	abandonedPool(collected)
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("an unreferenced FramePool's payload survived a full collection")
	}
}

func TestFramePoolSteadyStateAllocs(t *testing.T) {
	p := NewFramePool(8)
	f := p.Get()
	p.Put(f) // warm the free list
	if n := testing.AllocsPerRun(1000, func() {
		p.Put(p.Get())
	}); n != 0 {
		t.Fatalf("steady-state Get/Put allocates %.2f per op, want 0", n)
	}
}
