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
//     pin.
//
//   - One writer per span. A span's records live in storage the span owns
//     and are appended without any lock, so a span (its Begin, Event and
//     attribute setters, and those of the Event it hands out) must be
//     written by one goroutine at a time. That is what keeps concurrent
//     producers (strategy.PlanBatch workers) deterministic, and it is also
//     what keeps them memory-safe: PlanBatch opens every request span
//     serially before dispatch and each worker then writes only under its
//     own. Exports run once the writers are done.
//
// Storage: an event is a name tag followed by one tag and one 8-byte value
// per attribute, appended to its span's two pointer-free slices; names,
// keys and string values are interned journal-wide to small integers. The
// garbage collector never scans an event, and a seven-attribute event
// takes 88 bytes.
//
// JSONL export (jsonl.go) uses a versioned schema; WriteChromeTrace
// (chrome.go) renders the same tree on a virtual timeline for
// chrome://tracing, followed by any timeline events the caller appends
// (internal/streampu's execution trace); WriteExplain (explain.go) renders
// it as a human-readable narrative.
package trace

import (
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
)

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

// Attr is one key/value attribute of a ChromeEvent handed to
// WriteChromeTrace; build them with String/Int/Float64/Bool. The
// exporters also decode a span's or event's stored attributes into Attrs.
// v holds the value's bits: the int64, the float64's IEEE bits, or 0/1.
type Attr struct {
	key  string
	kind attrKind
	str  string
	v    uint64
}

// String returns a string attribute.
func String(key, v string) Attr { return Attr{key: key, kind: kindString, str: v} }

// Int returns an integer attribute.
func Int(key string, v int64) Attr { return Attr{key: key, kind: kindInt, v: uint64(v)} }

// Float64 returns a float attribute.
func Float64(key string, v float64) Attr {
	return Attr{key: key, kind: kindFloat, v: math.Float64bits(v)}
}

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{key: key, kind: kindBool, v: boolBits(v)} }

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// A tag is one 32-bit word of a span's record stream: an interned string
// id above tagShift, and below it whether the word opens an event
// (tagEvent) or is an attribute of a given kind, and whether that
// attribute belongs to the span itself rather than to its current event.
const (
	tagEvent  = 0      // an event's name; the attribute tags that follow are its own
	tagAttr   = 1      // tagAttr + attrKind: an attribute, whose value is the next vals word
	tagKind   = 0b0111 // mask of the two above
	tagOfSpan = 0b1000 // the attribute is the span's, set among its events
	tagShift  = 4
	maxID     = 1<<(32-tagShift) - 1 // the largest id a tag holds
)

// Journal is the root of one decision trace. The zero value is not
// usable; create journals with New. A nil *Journal is the disabled sink:
// it hands out nil spans and exports nothing.
type Journal struct {
	root *Span

	// mu serializes interning a new string; lookups of known ones read
	// the published table without it.
	mu      sync.Mutex
	tab     atomic.Pointer[internTab]
	strs    []string      // id → string, appended under mu
	entries []internEntry // where new entries are carved from, under mu
	seed    maphash.Seed
}

// New returns an empty journal whose root span is named "run".
func New() *Journal {
	j := &Journal{seed: maphash.MakeSeed(), strs: make([]string, 0, internChunk)}
	j.tab.Store(&internTab{slots: make([]atomic.Pointer[internEntry], 2*internChunk)})
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

// Span is one node of the journal tree. Spans are created with Begin and
// never explicitly closed: their extent is defined by the tree structure.
// A span is written by one goroutine at a time (see the package comment);
// different spans may be written concurrently.
type Span struct {
	j     *Journal
	name  uint32
	nattr int // attributes of the span itself
	nev   int // events
	// tags holds, in append order, one tag per event and per attribute;
	// vals one value per attribute. Both start in inl, so a small span
	// costs one allocation.
	tags []uint32
	vals []uint64
	kids []child
	ev   Event // the cursor Event hands out
	inl  struct {
		tags [8]uint32
		vals [6]uint64
	}
}

// child is a span's child span and the number of the span's events that
// precede it.
type child struct {
	sp *Span
	at int
}

func (j *Journal) newSpan(name string) *Span {
	s := &Span{j: j, name: j.intern(name)}
	s.ev.s = s
	s.tags, s.vals = s.inl.tags[:0], s.inl.vals[:0]
	return s
}

// Begin opens a child span. Nil receiver → nil span (no allocation).
func (s *Span) Begin(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.j.newSpan(name)
	s.kids = append(s.kids, child{sp: c, at: s.nev})
	return c
}

// Event appends an event to the span and returns it for attribute
// chaining. The returned Event is a cursor over the span's last event:
// it stays valid until the next Event on the same span, after which it
// sets the new event's attributes. Nil receiver → nil event (no
// allocation).
func (s *Span) Event(name string) *Event {
	if s == nil {
		return nil
	}
	s.tags = append(s.tags, s.j.intern(name)<<tagShift|tagEvent)
	s.nev++
	return &s.ev
}

// put appends a as one attribute record; of is tagOfSpan or 0.
func (s *Span) put(a Attr, of uint32) {
	if a.kind == kindString {
		a.v = uint64(s.j.intern(a.str))
	}
	s.tags = append(s.tags, s.j.intern(a.key)<<tagShift|of|tagAttr+uint32(a.kind))
	s.vals = append(s.vals, a.v)
	if of != 0 {
		s.nattr++
	}
}

// Str sets a string attribute on the span. No-op on nil.
func (s *Span) Str(key, v string) *Span {
	if s != nil {
		s.put(String(key, v), tagOfSpan)
	}
	return s
}

// Int sets an integer attribute on the span. No-op on nil.
func (s *Span) Int(key string, v int) *Span {
	if s != nil {
		s.put(Int(key, int64(v)), tagOfSpan)
	}
	return s
}

// F64 sets a float attribute on the span. No-op on nil.
func (s *Span) F64(key string, v float64) *Span {
	if s != nil {
		s.put(Float64(key, v), tagOfSpan)
	}
	return s
}

// Bool sets a boolean attribute on the span. No-op on nil.
func (s *Span) Bool(key string, v bool) *Span {
	if s != nil {
		s.put(Bool(key, v), tagOfSpan)
	}
	return s
}

// Event is one decision record inside a span, as the cursor Span.Event
// returns: its setters append attributes to the span's last event.
type Event struct {
	s *Span
}

// Str sets a string attribute. No-op on nil.
func (e *Event) Str(key, v string) *Event {
	if e != nil {
		e.s.put(String(key, v), 0)
	}
	return e
}

// Int sets an integer attribute. No-op on nil.
func (e *Event) Int(key string, v int) *Event {
	if e != nil {
		e.s.put(Int(key, int64(v)), 0)
	}
	return e
}

// F64 sets a float attribute. No-op on nil.
func (e *Event) F64(key string, v float64) *Event {
	if e != nil {
		e.s.put(Float64(key, v), 0)
	}
	return e
}

// Bool sets a boolean attribute. No-op on nil.
func (e *Event) Bool(key string, v bool) *Event {
	if e != nil {
		e.s.put(Bool(key, v), 0)
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
