// Package flight keeps only the names of the deleted flight recorder
// that bench/ still spells; nothing here records. The product's Flight
// fields are accepted and ignored. It goes with ROADMAP item 1(g).
package flight

// Code names an event kind; CodeWindow is the one bench/ spells.
type Code uint8

// CodeWindow was the code of one closed sampling window.
const CodeWindow Code = 6

// Event is the shape bench/ passes to Record.
type Event struct {
	Code  Code
	Stage int32
	A, B  float64
}

// Recorder records nothing.
type Recorder struct{}

// New returns an inert Recorder; the capacity is ignored.
func New(int) *Recorder { return &Recorder{} }

// Record does nothing, on a nil receiver too.
func (*Recorder) Record(Event) {}
