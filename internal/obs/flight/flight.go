// Package flight is the repository's black-box flight recorder: a
// lock-free, fixed-memory ring of the last N significant events — plan
// and replan requests, frame drops, replica stalls, window samples,
// faults — kept always on so a long-running scheduling
// process is diagnosable *after* something went wrong, without having
// had tracing enabled *before*.
//
// Where internal/trace records everything a run decided (unbounded, for
// offline analysis) and internal/obs records aggregates (counters,
// quantiles), flight keeps a bounded recent-history window of discrete
// events at near-zero cost:
//
//   - Record is lock-free from any goroutine: one atomic ticket
//     fetch-add plus a per-slot seqlock (two atomic stores bracketing
//     plain field writes). No locks, no channels, no allocations —
//     TestRecordIsAllocationFree pins 0 on both the enabled and the
//     disabled (nil receiver) path.
//
//   - Memory is fixed at creation: a power-of-two slot array that new
//     events overwrite oldest-first. A recorder never grows, so it can
//     stay attached to a daemon for weeks.
//
//   - Dumps are deterministic. Events carry caller-supplied ticks (sim
//     µs, window index, frame sequence — never a wall clock read by the
//     recorder itself), strings are interned up front and referenced by
//     index, and Dump orders by the global ticket so two dumps of the
//     same event history render byte-identically. Slots caught
//     mid-overwrite are discarded by the seqlock check, never emitted
//     torn.
//
// The repository's observability discipline applies: every method is a
// no-op on a nil *Recorder, so call sites are instrumented
// unconditionally and a nil recorder is the disabled sink.
package flight

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Code discriminates the event kinds a Recorder captures. The set is
// closed and ordered. Dumps render the code name, never the number, so
// deleting a code renumbers the ones after it without changing any dump;
// TestCodeString pins every name in order.
type Code uint8

// The event codes.
const (
	// CodeNone marks an unused slot; Record normalizes it to CodeMark.
	CodeNone Code = iota
	// CodeMark is a generic caller annotation with no dedicated code.
	CodeMark
	// CodePlan is one resolved planning request (strategy.PlanBatch):
	// A = period, B = stage count; Aux names the strategy.
	CodePlan
	// CodeReplan is one warm-started incremental re-plan
	// (strategy.ReplanBatch): A = period, B = rows refilled.
	CodeReplan
	// CodeFrameDrop is a frame that finished in error and left the
	// pipeline without a usable payload: A = frame sequence.
	CodeFrameDrop
	// CodeStall is a replica blocked on a full downstream buffer
	// (backpressure): A = frame sequence, B = replica index.
	CodeStall
	// CodeWindow is one closed sampling window: A = occupancy or rate,
	// B = weight estimate (producer-defined; see the wiring sites).
	CodeWindow
	// CodeFault is an injected or observed fault (desim weight steps,
	// soak-harness chaos): A/B are fault-specific.
	CodeFault

	numCodes
)

var codeNames = [numCodes]string{
	CodeNone:      "none",
	CodeMark:      "mark",
	CodePlan:      "plan",
	CodeReplan:    "replan",
	CodeFrameDrop: "frame_drop",
	CodeStall:     "stall",
	CodeWindow:    "window",
	CodeFault:     "fault",
}

// String returns the code's dump name.
func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "code" + strconv.Itoa(int(c))
}

// Event is one recorded flight event. Seq is the recorder-assigned
// global ticket (monotone across all goroutines); Tick is the caller's
// clock (sim µs, window index, frame sequence — the producer chooses and
// documents the unit); Stage is the pipeline stage the event concerns
// (-1 when not stage-scoped); Aux is an interned-string index (see
// Recorder.Intern; 0 means none); A and B are code-specific payloads.
type Event struct {
	Seq   uint64
	Tick  int64
	Code  Code
	Stage int32
	Aux   uint32
	A, B  float64
}

// slot is one ring cell: a seqlock (begin/commit ticket pair) around the
// event fields. A reader accepts a slot only when commit == begin and
// both equal a completed ticket — a writer racing the read leaves begin
// ahead of commit, so torn copies are detected and discarded. Every
// field is individually atomic: the seqlock alone guarantees cross-field
// consistency, but atomic accesses keep the pattern free of data races
// in the Go memory model (and under -race), not just correct on x86.
type slot struct {
	begin  atomic.Uint64 // ticket of the writer that claimed the slot
	commit atomic.Uint64 // ticket once the write completed
	tick   atomic.Int64
	code   atomic.Uint32
	stage  atomic.Int32
	aux    atomic.Uint32
	a, b   atomic.Uint64 // float64 bits
}

// DefaultCap is the ring capacity used when a non-positive one is
// requested: 4096 events is hours of significant-event history for a
// streaming pipeline while costing ~256 KiB of fixed memory.
const DefaultCap = 4096

// Recorder is the fixed-memory event ring. Create with New; a nil
// *Recorder is the disabled sink — every method is a no-op and Record
// stays allocation-free.
type Recorder struct {
	slots  []slot
	mask   uint64
	ticket atomic.Uint64

	// intern is the string table behind Event.Aux. Interning happens at
	// setup time (strategy names), never on the hot Record path, which
	// only carries the index.
	internMu sync.RWMutex
	interned []string
	internIx map[string]uint32
}

// New returns a recorder keeping the last capacity events (rounded up to
// a power of two; ≤ 0 selects DefaultCap).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{
		slots:    make([]slot, n),
		mask:     uint64(n - 1),
		interned: []string{""}, // index 0 = none
		internIx: map[string]uint32{},
	}
}

// Cap returns the ring capacity (0 on a nil receiver).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns the number of events ever recorded, including ones the
// ring has since overwritten (0 on a nil receiver).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ticket.Load()
}

// Intern registers s in the recorder's string table and returns its
// index for Event.Aux. Interning the same string twice returns the same
// index. Call it at setup time — it takes a lock and may allocate; the
// Record path never does either. A nil receiver returns 0 (the "none"
// index).
func (r *Recorder) Intern(s string) uint32 {
	if r == nil || s == "" {
		return 0
	}
	r.internMu.RLock()
	ix, ok := r.internIx[s]
	r.internMu.RUnlock()
	if ok {
		return ix
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if ix, ok := r.internIx[s]; ok {
		return ix
	}
	ix = uint32(len(r.interned))
	r.interned = append(r.interned, s)
	r.internIx[s] = ix
	return ix
}

// Lookup resolves an interned index back to its string ("" for 0,
// out-of-range, or a nil receiver).
func (r *Recorder) Lookup(ix uint32) string {
	if r == nil || ix == 0 {
		return ""
	}
	r.internMu.RLock()
	defer r.internMu.RUnlock()
	if int(ix) >= len(r.interned) {
		return ""
	}
	return r.interned[ix]
}

// Record appends one event, overwriting the oldest when the ring is
// full. e.Seq is ignored (the recorder assigns the global ticket);
// e.Code zero normalizes to CodeMark. Lock-free and allocation-free;
// safe from any number of goroutines; no-op on a nil receiver.
//
// The slot protocol is a per-slot seqlock: begin is stamped before the
// field writes, commit after. Two writers only ever contend on the same
// slot when the ring wraps fully between their ticket grabs (the older
// event was lost either way); readers discard slots whose begin/commit
// pair doesn't match, so a torn mix of two events is never emitted.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Code == CodeNone {
		e.Code = CodeMark
	}
	t := r.ticket.Add(1) // tickets are 1-based: 0 means "never written"
	s := &r.slots[(t-1)&r.mask]
	s.begin.Store(t)
	s.tick.Store(e.Tick)
	s.code.Store(uint32(e.Code))
	s.stage.Store(e.Stage)
	s.aux.Store(e.Aux)
	s.a.Store(math.Float64bits(e.A))
	s.b.Store(math.Float64bits(e.B))
	s.commit.Store(t)
}

// Snapshot copies the live window: every consistently-readable event,
// ordered by ascending Seq (oldest first). Writers keep running during
// the copy; slots mid-overwrite are skipped. Nil receiver → nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for {
			c := s.commit.Load()
			if c == 0 {
				break // never written
			}
			ev := Event{
				Seq:   c,
				Tick:  s.tick.Load(),
				Code:  Code(s.code.Load()),
				Stage: s.stage.Load(),
				Aux:   s.aux.Load(),
				A:     math.Float64frombits(s.a.Load()),
				B:     math.Float64frombits(s.b.Load()),
			}
			if s.begin.Load() == c && s.commit.Load() == c {
				out = append(out, ev)
				break
			}
			// A writer was mid-flight; once its commit lands the stamps
			// agree again. Retry then — the loop terminates because a slot
			// is rewritten at most once per full ring wrap.
			if s.commit.Load() == c {
				break // begin moved but commit didn't: discard, writer active
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteDump renders the current window as the deterministic flight-dump
// text: one line per event, ascending Seq, fixed field order, floats in
// Go's shortest-round-trip form. Two dumps of the same recorded history
// are byte-identical — the golden-test contract. A nil receiver writes
// only the empty header.
func (r *Recorder) WriteDump(w io.Writer) error {
	events := r.Snapshot()
	if _, err := fmt.Fprintf(w, "# flight dump: %d event(s), %d recorded, cap %d\n",
		len(events), r.Total(), r.Cap()); err != nil {
		return err
	}
	for _, e := range events {
		if err := writeEvent(w, r, e); err != nil {
			return err
		}
	}
	return nil
}

func writeEvent(w io.Writer, r *Recorder, e Event) error {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var err error
	if aux := r.Lookup(e.Aux); aux != "" {
		_, err = fmt.Fprintf(w, "#%d tick=%d %s stage=%d a=%s b=%s aux=%q\n",
			e.Seq, e.Tick, e.Code, e.Stage, f(e.A), f(e.B), aux)
	} else {
		_, err = fmt.Fprintf(w, "#%d tick=%d %s stage=%d a=%s b=%s\n",
			e.Seq, e.Tick, e.Code, e.Stage, f(e.A), f(e.B))
	}
	return err
}
