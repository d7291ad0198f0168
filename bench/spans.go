package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A layer is one module of the program; every span belongs to one. lBench
// marks the harness's own containers (workload, set-up, round, the opaque
// W-worker batch) and is left out of the self-time shares.
type layer uint8

const (
	lBench layer = iota
	lChaingen
	lStrategy
	lHerad
	lTwocatac
	lFertac
	lOtac
	lDesim
	lStreampu
	lDvbs2
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "chaingen", "strategy", "herad", "twocatac", "fertac", "otac", "desim", "streampu", "dvbs2",
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; op groups the spans of one request, frame or row.
type span struct {
	id, parent int32
	op         int32
	layer      layer
	name       uint16
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanBuf is a preallocated span store owned by one goroutine at a time, so
// recording never locks and never allocates; a full buffer drops and counts.
type spanBuf struct {
	spans   []span
	dropped int
}

func (b *spanBuf) add(s span) {
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
}

// tracer records the benchmark's own spans around calls into the program.
// Every method is a no-op on a nil tracer, so workloads call it
// unconditionally and the untraced run pays one nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Int32

	mu     sync.Mutex
	bufs   []*spanBuf
	names  []string
	nameIx map[string]uint16

	main *spanBuf // spans opened by the harness goroutine
	cur  openSpan // the harness container (set-up or workload) new top-level spans hang under
}

// mainSpanCap bounds the spans the single-threaded planner workloads record:
// requests per round × rounds stays far below it.
const mainSpanCap = 1 << 19

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), nameIx: map[string]uint16{}}
	t.main = t.newBuf(mainSpanCap)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// intern maps a span name to its index; called at set-up, not per span.
func (t *tracer) intern(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix, ok := t.nameIx[name]; ok {
		return ix
	}
	ix := uint16(len(t.names))
	t.names = append(t.names, name)
	t.nameIx[name] = ix
	return ix
}

func (t *tracer) newBuf(capacity int) *spanBuf {
	b := &spanBuf{spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// reserve hands out n consecutive span ids and returns the first.
func (t *tracer) reserve(n int) int32 { return t.nextID.Add(int32(n)) - int32(n) + 1 }

// reset drops every recorded span (used between repeated set-ups, whose
// spans would otherwise be counted more than once).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, b := range t.bufs {
		b.spans = b.spans[:0]
	}
	t.bufs = t.bufs[:1]
	t.mu.Unlock()
}

// open starts a span on the harness goroutine and returns its handle; close
// ends it. The handle is the span's id, which children pass as parent.
type openSpan struct {
	id int32
	ix int
}

func (t *tracer) open(parent openSpan, op int, l layer, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	o := openSpan{id: t.reserve(1), ix: len(t.main.spans)}
	t.main.add(span{id: o.id, parent: parent.id, op: int32(op), layer: l, name: t.intern(name), start: t.now()})
	return o
}

// setScope and scope hand the harness's current container to the workloads.
func (t *tracer) setScope(o openSpan) {
	if t != nil {
		t.cur = o
	}
}

func (t *tracer) scope() openSpan {
	if t == nil {
		return openSpan{}
	}
	return t.cur
}

func (t *tracer) close(o openSpan) {
	// The zero handle is "no span"; a handle past the end was dropped by a
	// full buffer.
	if t == nil || o.id == 0 || o.ix >= len(t.main.spans) {
		return
	}
	t.main.spans[o.ix].end = t.now()
}

// call records f as one span.
func (t *tracer) call(parent openSpan, op int, l layer, name string, f func()) {
	o := t.open(parent, op, l, name)
	f()
	t.close(o)
}

// collect returns every recorded span and how many were dropped.
func (t *tracer) collect() (all []span, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		all = append(all, b.spans...)
		dropped += b.dropped
	}
	return all, dropped
}

// selfTimes sums, per layer, each span's duration minus the durations of its
// direct children. Children run inside their parent or, for the planner
// workloads, replay the parent's requests one by one right after it; in both
// cases parent minus children is what the parent layer itself cost.
func selfTimes(spans []span) [numLayers]float64 {
	child := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.dur()
		}
	}
	var self [numLayers]float64
	for _, s := range spans {
		if d := s.dur() - child[s.id]; d > 0 {
			self[s.layer] += float64(d)
		}
	}
	return self
}

// durations returns the durations, in the given unit (ns per unit), of the
// spans named name in layer l.
func durations(spans []span, t *tracer, l layer, name string, unit float64) []float64 {
	ix, ok := t.nameIx[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range spans {
		if s.layer == l && s.name == ix {
			out = append(out, float64(s.dur())/unit)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"workload":%q,"op":%d,"span":%d,"parent":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			workload, s.op, s.id, s.parent, layerNames[s.layer], t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
