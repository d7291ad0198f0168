// Package ring provides the lock-free bounded FIFO queues behind
// streampu's inter-stage adaptors and frame free list.
//
// Two variants cover the two hand-off shapes a replicated pipeline has:
//
//   - SPSC is the fast path. Every upstream-replica → downstream-replica
//     pair in a stage boundary has exactly one producer goroutine and one
//     consumer goroutine, so the boundary matrix is built purely from
//     SPSC rings: a push is one slot write plus one atomic store, a pop
//     one atomic load plus one slot read. Each side keeps a cached copy
//     of the opposite index so the uncontended path touches only its own
//     cache line.
//
//   - MPMC is the fan-in/fan-out-safe fallback (Vyukov's bounded queue:
//     per-cell sequence numbers, CAS on the shared cursors). The frame
//     free list needs it — every last-stage replica releases frames and
//     every source replica acquires them concurrently.
//
// Both queues are fixed-memory (power-of-two slot array allocated at
// construction), allocation-free on push and pop, and index with free-
// running uint64 counters masked into the slot array — full/empty are
// distinguished by counter difference, not by wasting a slot, and the
// arithmetic is wraparound-safe (property- and fuzz-tested against a
// model queue, including counters started near the uint64 overflow
// point).
//
// The queues are non-blocking by design: TryPush/TryPop never wait, and
// the caller owns the waiting policy (streampu's boundaries spin, then
// yield, then sleep with escalating backoff — see the package there).
// Close is a producer-side end-of-stream marker: consumers that observe
// Closed must attempt one final TryPop before treating the queue as
// drained, because the closing store may land after their last probe.
package ring

import "sync/atomic"

// pad keeps the hot cursors of a queue on separate cache lines so the
// producer's writes do not invalidate the consumer's line and vice versa
// (false sharing is the classic SPSC throughput killer).
type pad [64]byte

// SPSC is a single-producer single-consumer bounded FIFO. All methods
// are allocation-free; TryPush/Close must be called from one goroutine
// at a time and TryPop from one goroutine at a time (the producer and
// consumer may of course be different goroutines — that is the point).
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    pad
	// Consumer-owned line: the pop cursor plus the consumer's cached view
	// of tail (refreshed only when the queue looks empty).
	head   atomic.Uint64
	tcache uint64
	_      pad
	// Producer-owned line: the push cursor plus the producer's cached
	// view of head (refreshed only when the queue looks full).
	tail   atomic.Uint64
	hcache uint64
	_      pad
	closed atomic.Bool
}

// NewSPSC returns an SPSC queue holding at least capacity elements
// (rounded up to a power of two; capacity < 1 is treated as 1).
func NewSPSC[T any](capacity int) *SPSC[T] {
	return &SPSC[T]{buf: make([]T, pow2(capacity)), mask: uint64(pow2(capacity) - 1)}
}

// pow2 rounds capacity up to the next power of two, minimum 1.
func pow2(capacity int) int {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// Len approximates the number of queued elements. Exact only when
// neither side is mid-operation.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// TryPush appends v and reports whether there was room. Producer-side
// only; never blocks, never allocates.
func (q *SPSC[T]) TryPush(v T) bool {
	t := q.tail.Load()
	if t-q.hcache >= uint64(len(q.buf)) {
		q.hcache = q.head.Load()
		if t-q.hcache >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1) // publishes the slot write to the consumer
	return true
}

// TryPop removes and returns the oldest element. Consumer-side only;
// never blocks, never allocates.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.tcache {
		q.tcache = q.tail.Load()
		if h == q.tcache {
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // drop the reference so the element can be collected
	q.head.Store(h + 1)    // returns the slot to the producer
	return v, true
}

// Close marks the producer side as finished. Elements already queued
// remain poppable; see the package comment for the consumer's drain
// protocol.
func (q *SPSC[T]) Close() { q.closed.Store(true) }

// Closed reports whether the producer closed the queue. Because the
// closing store is ordered after the producer's final TryPush, a
// consumer that observes Closed and then finds the queue empty has seen
// every element.
func (q *SPSC[T]) Closed() bool { return q.closed.Load() }

// mcell is one MPMC slot: Vyukov's sequence-stamped cell. seq == pos
// means "free for the pusher of ticket pos"; seq == pos+1 means "holds
// the element of ticket pos"; after a pop the cell is re-stamped one
// full lap ahead.
type mcell[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a multi-producer multi-consumer bounded FIFO (Vyukov bounded
// queue). All methods are safe from any number of goroutines and
// allocation-free.
type MPMC[T any] struct {
	buf  []mcell[T]
	mask uint64
	_    pad
	enq  atomic.Uint64
	_    pad
	deq  atomic.Uint64
	_    pad
}

// NewMPMC returns an MPMC queue holding at least capacity elements
// (rounded up to a power of two). The minimum capacity is 2: with a
// single cell, the "filled by ticket t" stamp t+1 is indistinguishable
// from the "free for ticket t+1" stamp, so Vyukov's full-detection
// breaks — the fuzz harness caught exactly this.
func NewMPMC[T any](capacity int) *MPMC[T] {
	if capacity < 2 {
		capacity = 2
	}
	q := &MPMC[T]{buf: make([]mcell[T], pow2(capacity))}
	q.mask = uint64(len(q.buf) - 1)
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Len approximates the number of queued elements.
func (q *MPMC[T]) Len() int {
	n := int64(q.enq.Load() - q.deq.Load())
	if n < 0 {
		n = 0
	}
	return int(n)
}

// TryPush appends v and reports whether there was room; never blocks,
// never allocates.
func (q *MPMC[T]) TryPush(v T) bool {
	pos := q.enq.Load()
	for {
		c := &q.buf[pos&q.mask]
		switch d := int64(c.seq.Load() - pos); {
		case d == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				c.val = v
				c.seq.Store(pos + 1) // publishes the value to poppers
				return true
			}
			pos = q.enq.Load()
		case d < 0:
			return false // a full lap behind: the queue is full
		default:
			pos = q.enq.Load() // lost a race; re-read the cursor
		}
	}
}

// TryPop removes and returns the oldest element; never blocks, never
// allocates.
func (q *MPMC[T]) TryPop() (T, bool) {
	var zero T
	pos := q.deq.Load()
	for {
		c := &q.buf[pos&q.mask]
		switch d := int64(c.seq.Load() - (pos + 1)); {
		case d == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				v := c.val
				c.val = zero
				c.seq.Store(pos + q.mask + 1) // re-arm the cell one lap ahead
				return v, true
			}
			pos = q.deq.Load()
		case d < 0:
			return zero, false // the cell is not filled yet: the queue is empty
		default:
			pos = q.deq.Load()
		}
	}
}
