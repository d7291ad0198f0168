package streampu

import (
	"ampsched/internal/streampu/ring"
)

// FramePool recycles Frame objects through a lock-free MPMC free list, so
// the pipeline's steady-state frame loop performs zero heap allocations.
//
// The free list is MPMC because recycling is the pipeline's one true
// fan-in/fan-out point: every last-stage replica releases frames and
// every source replica acquires them, concurrently. Sized to the
// pipeline's in-flight bound (workers plus aggregate boundary
// capacity), the ring can never overflow in steady state, and after the
// first lap it never underflows either — Get pops a recycled frame and
// Put pushes it back, no allocator in sight. The two edges need nothing
// clever: a Get on an empty ring (the first lap) allocates a frame, a Put
// on a full ring (more frames released than the pool was sized for)
// leaves the frame to the collector.
//
// There is deliberately no sync.Pool behind the ring. A sync.Pool used
// once is registered with the runtime until the collection after next,
// and one embedded here kept the whole FramePool reachable with it — the
// ring, every frame in it and every payload buffer those frames recycle —
// for a full GC cycle after the pipeline that owned it was gone.
//
// Ownership contract: a frame obtained from Get is owned exclusively by
// the caller until handed downstream; the last owner returns it with
// Put, after which any retained pointer to the frame (not to its
// payload) is invalid. Put resets Err; Seq is overwritten by the next
// Get site. Data is deliberately preserved across recycling so payload
// buffers are reused too — tasks that lazily allocate with
// "if f.Data == nil { f.Data = &Payload{} }" (the dvbs2 chains do)
// become allocation-free after the pool's first lap. Sources that need
// a pristine frame must reset Data themselves.
type FramePool struct {
	free *ring.MPMC[*Frame]
}

// NewFramePool returns a pool whose lock-free free list holds up to
// capacity frames (rounded up to a power of two; sized by callers to
// the maximum number of frames simultaneously in flight).
func NewFramePool(capacity int) *FramePool {
	return &FramePool{free: ring.NewMPMC[*Frame](capacity)}
}

// Get returns a frame with Err == nil and undefined Seq/Data (see the
// recycling contract on FramePool). Allocation-free whenever the free
// list is non-empty. A nil pool allocates a fresh frame.
func (p *FramePool) Get() *Frame {
	if p != nil {
		if f, ok := p.free.TryPop(); ok {
			return f
		}
	}
	return new(Frame)
}

// Put recycles f. Safe from any goroutine; a nil pool or nil frame is a
// no-op.
func (p *FramePool) Put(f *Frame) {
	if p == nil || f == nil {
		return
	}
	f.Err = nil
	p.free.TryPush(f) // a full ring drops the frame
}
