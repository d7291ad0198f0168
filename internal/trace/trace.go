// Package trace is the scheduling stack's decision journal: a structured
// event log with hierarchical spans (run → strategy → probe/DP-pass →
// decision events) that turns a scheduler run into an inspectable,
// replayable artifact. Where internal/obs answers "how much" (counters,
// timers), trace answers "why": which period targets the binary search
// probed, which stage intervals the greedy packers committed, which DP
// cells HeRAD recomputed and what each cell chose.
//
// The package follows the design discipline of internal/obs:
//
//   - Nil-safe handles. Every method on Journal, Span, Scope and Event is
//     a no-op on a nil receiver. Code is instrumented unconditionally;
//     whether anything is recorded is decided solely by whether a journal
//     was supplied.
//
//   - Allocation-free when disabled. The nil path allocates nothing: a
//     nil Journal hands out nil Spans, nil Spans hand out nil Events, and
//     every attribute setter is a single nil check. Hot loops additionally
//     gate emission on Scope.Enabled so the disabled cost is one branch.
//
//   - Deterministic output. Events carry no wall-clock data, spans are
//     exported in creation order and events in append order, so two runs
//     of a deterministic workload export byte-identical journals — the
//     property the -explain golden tests and the JSONL determinism tests
//     pin. Concurrent producers (strategy.PlanBatch workers) stay
//     deterministic as long as each goroutine appends to its own span
//     subtree and the subtree roots are created serially.
//
// JSONL export (jsonl.go) uses a versioned schema; WriteChromeTrace
// (chrome.go) renders the same tree on a virtual timeline for
// chrome://tracing, sharing one canonical trace-event writer with
// internal/streampu; WriteExplain (explain.go) renders it as a
// human-readable narrative.
package trace

import "sync"

// Schema is the journal's on-disk schema version, bumped on every
// incompatible change to the JSONL record shapes.
const Schema = 1

// attrKind discriminates the value types an Attr can carry.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one key/value attribute of a span or event. Attribute order is
// preserved (insertion order) so exports stay deterministic; build them
// with String/Int/Float64/Bool or the fluent Span/Event setters.
type Attr struct {
	key  string
	kind attrKind
	str  string
	i    int64
	f    float64
	b    bool
}

// String returns a string attribute.
func String(key, v string) Attr { return Attr{key: key, kind: kindString, str: v} }

// Int returns an integer attribute.
func Int(key string, v int64) Attr { return Attr{key: key, kind: kindInt, i: v} }

// Float64 returns a float attribute.
func Float64(key string, v float64) Attr { return Attr{key: key, kind: kindFloat, f: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{key: key, kind: kindBool, b: v} }

// Key returns the attribute key.
func (a Attr) Key() string { return a.key }

// Journal is the root of one decision trace. The zero value is not
// usable; create journals with New. A nil *Journal is the disabled sink:
// it hands out nil spans and exports nothing.
type Journal struct {
	mu   sync.Mutex
	root *Span

	// Span/event/attribute arenas. Traced runs emit one Event per DP cell
	// with a handful of attributes each, so allocating every Event and
	// every attrs growth step individually dominated the traced profile
	// (~20k allocs/op on registry/schedule_traced). Spans and events are
	// instead carved out of fixed-size chunks, and each carries a
	// zero-length attribute window pre-reserved inside attrChunk, so the
	// common small-attribute case appends without ever touching the
	// allocator. Chunks are never resliced beyond their capacity once
	// handed out, so carved pointers stay valid when the journal swaps in
	// a fresh chunk. The canonical export is unaffected: arenas change
	// where records live, not what they say.
	spanChunk  []Span
	eventChunk []Event
	attrChunk  []Attr
}

const (
	spanChunkSize  = 64
	eventChunkSize = 256
	// attrPrealloc is each span's/event's pre-reserved attribute window.
	// The widest built-in emitter (herad's dp_cell) sets 7 attributes;
	// overflowing the window falls back to a plain heap append.
	attrPrealloc  = 8
	attrChunkSize = eventChunkSize * attrPrealloc
)

// attrWindow reserves an attrPrealloc-capacity window inside the attr
// arena. The three-index slice pins the window's capacity to its own
// region, so unlocked attribute appends by different goroutines can never
// spill into a neighbor's window. Callers hold j.mu.
func (j *Journal) attrWindow() []Attr {
	if cap(j.attrChunk)-len(j.attrChunk) < attrPrealloc {
		j.attrChunk = make([]Attr, 0, attrChunkSize)
	}
	off := len(j.attrChunk)
	j.attrChunk = j.attrChunk[:off+attrPrealloc]
	return j.attrChunk[off : off : off+attrPrealloc]
}

// newSpan carves a span (with attr window) from the arena. Callers hold
// j.mu (except New, which has exclusive access by construction).
func (j *Journal) newSpan(name string) *Span {
	if len(j.spanChunk) == cap(j.spanChunk) {
		j.spanChunk = make([]Span, 0, spanChunkSize)
	}
	j.spanChunk = append(j.spanChunk, Span{j: j, name: name, attrs: j.attrWindow()})
	return &j.spanChunk[len(j.spanChunk)-1]
}

// newEvent carves an event (with attr window) from the arena. Callers
// hold j.mu.
func (j *Journal) newEvent(name string) *Event {
	if len(j.eventChunk) == cap(j.eventChunk) {
		j.eventChunk = make([]Event, 0, eventChunkSize)
	}
	j.eventChunk = append(j.eventChunk, Event{name: name, attrs: j.attrWindow()})
	return &j.eventChunk[len(j.eventChunk)-1]
}

// New returns an empty journal whose root span is named "run".
func New() *Journal {
	j := &Journal{}
	j.root = j.newSpan("run")
	return j
}

// Root returns the journal's root span (nil on a nil journal).
func (j *Journal) Root() *Span {
	if j == nil {
		return nil
	}
	return j.root
}

// Begin opens a child span of the root. Nil journal → nil span.
func (j *Journal) Begin(name string) *Span {
	return j.Root().Begin(name)
}

// item is one entry of a span's ordered body: either an event or a child
// span, in append order.
type item struct {
	ev *Event
	sp *Span
}

// Span is one node of the journal tree. Spans are created with Begin and
// never explicitly closed: their extent is defined by the tree structure.
// A span's items may be appended concurrently with other spans' (the
// journal serializes appends), but a single span must only be appended to
// by one goroutine at a time for the export order to be deterministic.
type Span struct {
	j     *Journal
	name  string
	attrs []Attr
	items []item
}

// Name returns the span name ("" on a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Attrs returns the span's attributes (nil on a nil span).
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Begin opens a child span. Nil receiver → nil span (no allocation).
func (s *Span) Begin(name string) *Span {
	if s == nil {
		return nil
	}
	s.j.mu.Lock()
	c := s.j.newSpan(name)
	s.items = append(s.items, item{sp: c})
	s.j.mu.Unlock()
	return c
}

// Event appends an event to the span and returns it for attribute
// chaining. Nil receiver → nil event (no allocation).
func (s *Span) Event(name string) *Event {
	if s == nil {
		return nil
	}
	s.j.mu.Lock()
	e := s.j.newEvent(name)
	s.items = append(s.items, item{ev: e})
	s.j.mu.Unlock()
	return e
}

// Str sets a string attribute on the span. No-op on nil.
func (s *Span) Str(key, v string) *Span {
	if s != nil {
		s.attrs = append(s.attrs, String(key, v))
	}
	return s
}

// Int sets an integer attribute on the span. No-op on nil.
func (s *Span) Int(key string, v int) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Int(key, int64(v)))
	}
	return s
}

// F64 sets a float attribute on the span. No-op on nil.
func (s *Span) F64(key string, v float64) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Float64(key, v))
	}
	return s
}

// Bool sets a boolean attribute on the span. No-op on nil.
func (s *Span) Bool(key string, v bool) *Span {
	if s != nil {
		s.attrs = append(s.attrs, Bool(key, v))
	}
	return s
}

// Event is one decision record inside a span. Attribute setters mutate
// the already-appended event, so emission is a single append followed by
// in-place writes — no intermediate builder.
type Event struct {
	name  string
	attrs []Attr
}

// Name returns the event name ("" on a nil event).
func (e *Event) Name() string {
	if e == nil {
		return ""
	}
	return e.name
}

// Attrs returns the event's attributes (nil on a nil event).
func (e *Event) Attrs() []Attr {
	if e == nil {
		return nil
	}
	return e.attrs
}

// Str sets a string attribute. No-op on nil.
func (e *Event) Str(key, v string) *Event {
	if e != nil {
		e.attrs = append(e.attrs, String(key, v))
	}
	return e
}

// Int sets an integer attribute. No-op on nil.
func (e *Event) Int(key string, v int) *Event {
	if e != nil {
		e.attrs = append(e.attrs, Int(key, int64(v)))
	}
	return e
}

// F64 sets a float attribute. No-op on nil.
func (e *Event) F64(key string, v float64) *Event {
	if e != nil {
		e.attrs = append(e.attrs, Float64(key, v))
	}
	return e
}

// Bool sets a boolean attribute. No-op on nil.
func (e *Event) Bool(key string, v bool) *Event {
	if e != nil {
		e.attrs = append(e.attrs, Bool(key, v))
	}
	return e
}

// Scope is a mutable current-span holder threaded through instrumented
// call trees whose function signatures cannot carry a span (the
// sched.ComputeSolutionFunc plug-ins capture their Metrics once, but the
// binary search wants each probe's decisions grouped under a probe span).
// The owner Enters/exits spans; emit sites write to the current span via
// Event. A Scope must only be used from one goroutine at a time — the
// per-schedule contract the strategy layer already guarantees.
type Scope struct {
	cur *Span
}

// NewScope returns a scope rooted at sp, or nil when sp is nil — so the
// disabled path stays allocation-free.
func NewScope(sp *Span) *Scope {
	if sp == nil {
		return nil
	}
	return &Scope{cur: sp}
}

// Enabled reports whether the scope records anything; hot loops gate
// their event construction on it.
func (sc *Scope) Enabled() bool { return sc != nil }

// Span returns the current span (nil on a nil scope).
func (sc *Scope) Span() *Span {
	if sc == nil {
		return nil
	}
	return sc.cur
}

// Event appends an event to the current span. Nil scope → nil event.
func (sc *Scope) Event(name string) *Event {
	return sc.Span().Event(name)
}

var noopExit = func() {}

// Enter opens a child span of the current span, makes it current, and
// returns the span plus the function restoring the previous current span.
// On a nil scope it returns (nil, shared no-op).
func (sc *Scope) Enter(name string) (*Span, func()) {
	if sc == nil {
		return nil, noopExit
	}
	parent := sc.cur
	sc.cur = parent.Begin(name)
	return sc.cur, func() { sc.cur = parent }
}
