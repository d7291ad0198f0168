package flight

import "testing"

// TestRecordIsAllocationFree pins what the benchmark's flight.record_ns
// row times: Record on a recorder from New, and on a nil one, allocates
// nothing.
func TestRecordIsAllocationFree(t *testing.T) {
	r := New(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(Event{Code: CodeWindow, Stage: 1, A: 0.5, B: 120})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v/op, want 0", allocs)
	}
	var nilRec *Recorder
	allocs = testing.AllocsPerRun(1000, func() {
		nilRec.Record(Event{Code: CodeWindow, Stage: 1, A: 0.5, B: 120})
	})
	if allocs != 0 {
		t.Fatalf("Record on a nil recorder allocates %v/op, want 0", allocs)
	}
}
