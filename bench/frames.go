package main

import (
	"sync"
	"time"

	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/streampu"
)

// frameRec is what the wrapped tasks of one pipeline share: the source
// stamps a frame's pick-up time into a preallocated slot indexed by Seq, the
// last task reads it and stores the frame's latency. In the traced run it
// also hands out span ids: frame seq's span is base+k·(tasks+1), its task
// spans follow, so no id is ever negotiated between goroutines.
type frameRec struct {
	t0     time.Time
	stamps []int64 // ns since t0, by Seq
	lat    []int64 // ns, by Seq; -1 until the frame leaves

	tr     *tracer
	every  uint64 // a frame is traced when Seq%every == 0
	base   int32  // first span id of this run
	parent int32  // the round's span
	ntasks int
	layer  layer  // the layer the wrapped tasks belong to
	frame  uint16 // interned name of the per-frame span

	mu     sync.Mutex
	clones []*wrapped // every instance handed to the pipeline, for the totals
}

func (r *frameRec) now() int64 { return int64(time.Since(r.t0)) }

// start prepares one pipeline run of frames frames: it sizes the slots,
// reserves the run's span ids under parent when tracing, and returns tasks
// with the first and last (or, traced, all) wrapped. The instances it
// creates are the ones a stage with a single worker runs.
func (r *frameRec) start(tasks []streampu.Task, frames int, parent openSpan) []streampu.Task {
	r.ntasks = len(tasks)
	if cap(r.stamps) < frames {
		r.stamps, r.lat = make([]int64, frames), make([]int64, frames)
	}
	r.stamps, r.lat = r.stamps[:frames], r.lat[:frames]
	for i := range r.lat {
		r.lat[i] = -1
	}
	r.clones = r.clones[:0]
	if r.tr != nil {
		traced := (frames + int(r.every) - 1) / int(r.every)
		r.base = r.tr.reserve(traced * (r.ntasks + 1))
		r.parent = parent.id
		r.frame = r.tr.intern("frame")
	}
	out := append([]streampu.Task(nil), tasks...)
	for i, t := range tasks {
		first, last := i == 0, i == len(tasks)-1
		if r.tr == nil && !first && !last {
			continue
		}
		var name uint16
		if r.tr != nil {
			name = r.tr.intern(t.Name())
		}
		out[i] = r.instance(t, i, first, last, name)
	}
	return out
}

func (r *frameRec) frameID(seq uint64) int32 {
	return r.base + int32(seq/r.every)*int32(r.ntasks+1)
}

// wrapped times one task from outside. Untraced, only the first and the last
// task of a chain are wrapped; traced, every task is.
type wrapped struct {
	inner       streampu.Task
	idx         int
	first, last bool
	rec         *frameRec
	name        uint16

	// Owned by the one pipeline worker that runs this instance.
	buf        *spanBuf
	busy       int64 // ns inside inner, traced runs only
	frames     int
	lastSeq    int64
	misordered int
}

func (t *wrapped) Name() string     { return t.inner.Name() }
func (t *wrapped) Replicable() bool { return t.inner.Replicable() }

// Clone gives every replica worker its own instance (and its own span
// buffer), cloning the inner task when it asks for that itself.
func (t *wrapped) Clone() streampu.Task {
	inner := t.inner
	if c, ok := inner.(streampu.Cloner); ok {
		inner = c.Clone()
	}
	return t.rec.instance(inner, t.idx, t.first, t.last, t.name)
}

func (r *frameRec) instance(inner streampu.Task, idx int, first, last bool, name uint16) *wrapped {
	t := &wrapped{inner: inner, idx: idx, first: first, last: last, rec: r, name: name, lastSeq: -1}
	if r.tr != nil {
		spans := 2 * (len(r.stamps)/int(r.every) + 1) // a task span per traced frame, and the last task adds the frame's
		t.buf = r.tr.newBuf(spans)
	}
	r.mu.Lock()
	r.clones = append(r.clones, t)
	r.mu.Unlock()
	return t
}

func (t *wrapped) Process(w *streampu.Worker, f *streampu.Frame) error {
	r := t.rec
	var t0 int64
	if r.tr != nil || t.first {
		t0 = r.now()
		if t.first {
			r.stamps[f.Seq] = t0
		}
	}
	err := t.inner.Process(w, f)
	if r.tr == nil && !t.last {
		return err
	}
	t1 := r.now()
	tracedFrame := r.tr != nil && f.Seq%r.every == 0
	if r.tr != nil {
		t.busy += t1 - t0
		if tracedFrame {
			id := r.frameID(f.Seq)
			t.buf.add(span{id: id + 1 + int32(t.idx), parent: id, op: int32(f.Seq), layer: r.layer, name: t.name, start: t0, end: t1})
		}
	}
	if t.last {
		r.lat[f.Seq] = t1 - r.stamps[f.Seq]
		if int64(f.Seq) <= t.lastSeq {
			t.misordered++
		}
		t.lastSeq = int64(f.Seq)
		t.frames++
		if tracedFrame {
			t.buf.add(span{id: r.frameID(f.Seq), parent: r.parent, op: int32(f.Seq), layer: lStreampu, name: r.frame, start: r.stamps[f.Seq], end: t1})
		}
	}
	return err
}

// outcome sums what the last task's instances saw: frames that left, frames
// out of order within an instance, and frames whose latency was never set.
func (r *frameRec) outcome() (frames, misordered, lost int) {
	for _, t := range r.clones {
		if t.last {
			frames += t.frames
			misordered += t.misordered
		}
	}
	for _, l := range r.lat {
		if l < 0 {
			lost++
		}
	}
	return frames, misordered, lost
}

// busyByTask sums, per task index, the time every instance spent inside it.
func (r *frameRec) busyByTask() []float64 {
	busy := make([]float64, r.ntasks)
	for _, t := range r.clones {
		busy[t.idx] += float64(t.busy)
	}
	return busy
}

// sinks is every telemetry sink a pipeline run can carry, with the helper
// goroutine that takes a Sampler snapshot ten times a second.
type sinks struct {
	opt  streampu.Options
	stop chan struct{}
	done chan struct{}
}

// attachSinks adds a Sampler, the flight recorder and a fresh Tracer to opt
// and starts the snapshot goroutine; stopSinks ends it and waits.
func attachSinks(opt streampu.Options) *sinks {
	rec := flight.New(0)
	sampler := streampu.NewSampler(obs.NewRegistry())
	sampler.Flight = rec
	opt.Sampler, opt.Flight, opt.Tracer = sampler, rec, &streampu.Tracer{}
	s := &sinks{opt: opt, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				sampler.Sample(now)
			}
		}
	}()
	return s
}

func (s *sinks) stopSinks() {
	close(s.stop)
	<-s.done
}
