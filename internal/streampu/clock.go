package streampu

import (
	"runtime"
	"sync"
	"time"
)

// clock settles every modeled wait of one Run. A runtime timer fires up to
// ~1 ms late on Linux (the scheduler's netpoll wait has a millisecond
// timeout), so a worker that sleeps on its own must spin the last stretch
// of every frame, and a pipeline of W sleeping workers keeps W spinners
// busy. Instead a worker parks its deadline here and blocks; the clock's
// one goroutine sleeps until the earliest deadline — on a runtime timer
// while it is further than fineWindow away, then in naps of at most
// napSlice — and wakes every worker that is due in one batch, wakeLead
// before its deadline. The worker spins only that residue.
//
// The zero clock is ready: the goroutine, its channels and the timer are
// made by the first park, so a run whose tasks never Wait pays for none of
// them. Run stops the clock before it returns.
type clock struct {
	mu      sync.Mutex
	q       []parked  // min-heap on at
	napEnd  time.Time // latest end of the nap in progress; zero when a park interrupts the wait
	stopped bool

	notify chan struct{} // 1-slot: a new earliest deadline, or stop
	done   chan struct{} // closed when the goroutine returns
}

// parked is one worker blocked on its 1-slot wake channel until at.
type parked struct {
	at   time.Time
	wake chan struct{}
}

const (
	// wakeLead is how long before its deadline a parked worker is woken;
	// it covers the goroutine's wake-up and is spun by the worker. A wait
	// shorter than wakeLead is spun outright.
	wakeLead = 20 * time.Microsecond
	// napSlack is how late a nap typically ends: the kernel's 50 µs timer
	// slack plus the return to Go (55–75 µs at the median, up to 125 µs at
	// p99, measured). The clock wakes an entry once its deadline is within
	// wakeLead+napSlack, so a nap that ends late still leaves the worker
	// its lead, and one that ends early leaves it a little more to spin.
	napSlack = 80 * time.Microsecond
	// fineWindow is where the runtime timer hands over to naps: it must
	// exceed the timer's own lateness.
	fineWindow = 2 * time.Millisecond
	// napSlice bounds one nap: a nap cannot be interrupted, so a new
	// earliest deadline is seen at the latest one slice later (and a
	// deadline even nearer than that is not parked; see wait).
	napSlice = 200 * time.Microsecond
)

// wait blocks until shortly before at, leaving the caller to spin the
// rest. It returns at once when at is within wakeLead, or when the clock is
// in a nap it would wake from too late for at. wake is the caller's wake
// channel, made on its first park and reused for the run.
func (c *clock) wait(at time.Time, wake *chan struct{}) {
	if time.Until(at) <= wakeLead {
		return
	}
	c.mu.Lock()
	if at.Add(-wakeLead).Before(c.napEnd) {
		c.mu.Unlock()
		return
	}
	if c.notify == nil {
		c.notify, c.done = make(chan struct{}, 1), make(chan struct{})
		go c.run()
	}
	if *wake == nil {
		*wake = make(chan struct{}, 1)
	}
	top := c.push(parked{at: at, wake: *wake})
	c.mu.Unlock()
	if top {
		c.kick()
	}
	<-*wake
}

// kick interrupts the clock's timer or idle wait; a token already pending
// does the same.
func (c *clock) kick() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// stop ends the clock's goroutine, if a park started one, and waits for it.
// Every worker has returned by then, so nothing is parked.
func (c *clock) stop() {
	c.mu.Lock()
	c.stopped = true
	started := c.notify != nil
	c.mu.Unlock()
	if started {
		c.kick()
		<-c.done
	}
}

func (c *clock) run() {
	defer close(c.done)
	var t *time.Timer
	for {
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return
		}
		now := time.Now()
		c.napEnd = time.Time{}
		woke := false
		for len(c.q) > 0 && c.q[0].at.Sub(now) <= wakeLead+napSlack {
			// The worker is blocked on its empty 1-slot channel: this
			// send never blocks.
			c.pop().wake <- struct{}{}
			woke = true
		}
		if woke {
			// The woken workers are queued on this goroutine's P, which a
			// nap would hold in a syscall until the runtime took it back
			// (up to 10 ms): let them run first, then look again.
			c.mu.Unlock()
			runtime.Gosched()
			continue
		}
		wait := time.Duration(-1)
		if len(c.q) > 0 {
			wait = c.q[0].at.Sub(now) - wakeLead - napSlack
		}
		if 0 < wait && wait <= fineWindow {
			wait = min(wait, napSlice)
			c.napEnd = now.Add(wait + napSlack)
		}
		c.mu.Unlock()

		switch {
		case wait < 0:
			<-c.notify
		case wait > fineWindow:
			if t == nil {
				t = time.NewTimer(wait - fineWindow)
			} else {
				t.Reset(wait - fineWindow)
			}
			select {
			case <-t.C:
			case <-c.notify:
				// A stale fire left behind only costs one more lap.
				if !t.Stop() {
					select {
					case <-t.C:
					default:
					}
				}
			}
		default:
			nap(wait)
		}
	}
}

// push adds e to the heap and reports whether it became the earliest.
// The heap is container/heap's algorithm on a typed slice: heap.Push would
// box every entry and allocate on each park.
func (c *clock) push(e parked) bool {
	q := append(c.q, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].at.Before(q[p].at) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	c.q = q
	return i == 0
}

// pop removes and returns the earliest entry.
func (c *clock) pop() parked {
	q := c.q
	e := q[0]
	n := len(q) - 1
	q[0], q[n] = q[n], parked{}
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].at.Before(q[m].at) {
			m = r
		}
		if !q[m].at.Before(q[i].at) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	c.q = q
	return e
}
