package flight

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsDisabledSink(t *testing.T) {
	var r *Recorder
	r.Record(Event{Code: CodeWindow, A: 1})
	if r.Total() != 0 || r.Cap() != 0 {
		t.Fatalf("nil recorder total=%d cap=%d", r.Total(), r.Cap())
	}
	if r.Snapshot() != nil {
		t.Fatal("nil recorder snapshot not nil")
	}
	if r.Intern("x") != 0 || r.Lookup(1) != "" {
		t.Fatal("nil recorder interned")
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 event(s)") {
		t.Fatalf("nil dump = %q", buf.String())
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Code: CodeWindow, Tick: int64(i), Stage: int32(i % 2), A: float64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Tick != int64(i) || e.A != float64(i) {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(4) // capacity rounds to 4
	if r.Cap() != 4 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 0; i < 10; i++ {
		r.Record(Event{Tick: int64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("live window has %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("window = %v..%v, want 7..10", evs[0].Seq, evs[3].Seq)
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
}

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultCap}, {-1, DefaultCap}, {1, 1}, {3, 4}, {5, 8}, {4096, 4096}} {
		if got := New(tc.in).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestCodeZeroNormalizesToMark(t *testing.T) {
	r := New(2)
	r.Record(Event{})
	if evs := r.Snapshot(); len(evs) != 1 || evs[0].Code != CodeMark {
		t.Fatalf("snapshot = %+v", r.Snapshot())
	}
}

func TestInternRoundTrip(t *testing.T) {
	r := New(4)
	a := r.Intern("herad")
	b := r.Intern("otac_b")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("intern indices: %d, %d", a, b)
	}
	if r.Intern("herad") != a {
		t.Fatal("re-interning changed the index")
	}
	if r.Lookup(a) != "herad" || r.Lookup(b) != "otac_b" {
		t.Fatalf("lookup: %q, %q", r.Lookup(a), r.Lookup(b))
	}
	if r.Lookup(0) != "" || r.Lookup(999) != "" {
		t.Fatal("bad index resolved")
	}
}

func TestWriteDumpIsDeterministic(t *testing.T) {
	r := New(16)
	aux := r.Intern("herad")
	r.Record(Event{Code: CodePlan, Tick: 1, Stage: -1, Aux: aux, A: 412.5, B: 3})
	r.Record(Event{Code: CodeWindow, Tick: 7, Stage: 1, A: 0.75, B: 240.25})
	r.Record(Event{Code: CodeStall, Tick: 9, Stage: 0, A: 42, B: 1})
	dump := func() string {
		var buf bytes.Buffer
		if err := r.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := dump(), dump()
	if a != b {
		t.Fatalf("dumps differ:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{
		"# flight dump: 3 event(s), 3 recorded, cap 16",
		`#1 tick=1 plan stage=-1 a=412.5 b=3 aux="herad"`,
		"#2 tick=7 window stage=1 a=0.75 b=240.25",
		"#3 tick=9 stall stage=0 a=42 b=1",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("dump missing %q:\n%s", want, a)
		}
	}
}

func TestConcurrentRecordersNeverEmitTornEvents(t *testing.T) {
	// Hammer a tiny ring from many goroutines while snapshotting: every
	// surviving event must be internally consistent (A == Tick encodes the
	// writer's payload), and sequence numbers must be strictly increasing.
	r := New(8)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Snapshot()
			for i, e := range evs {
				if float64(e.Tick) != e.A {
					t.Errorf("torn event: %+v", e)
					return
				}
				if i > 0 && evs[i-1].Seq >= e.Seq {
					t.Errorf("non-increasing seq: %v then %v", evs[i-1].Seq, e.Seq)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				r.Record(Event{Code: CodeWindow, Tick: v, A: float64(v)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if r.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", r.Total(), writers*perWriter)
	}
}

func TestRecordIsAllocationFree(t *testing.T) {
	r := New(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(Event{Code: CodeWindow, Tick: 1, A: 0.5})
	})
	if allocs != 0 {
		t.Fatalf("enabled Record allocates %v/op, want 0", allocs)
	}
	var nilRec *Recorder
	allocs = testing.AllocsPerRun(1000, func() {
		nilRec.Record(Event{Code: CodeWindow, Tick: 1, A: 0.5})
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %v/op, want 0", allocs)
	}
}

// TestCodeString pins every code's dump name in numeric order. Dumps render
// names, not numbers, so a deleted code may renumber the ones after it; this
// list is what must not change by accident.
func TestCodeString(t *testing.T) {
	want := []string{"none", "mark", "plan", "replan", "frame_drop", "stall", "window", "fault"}
	if len(want) != int(numCodes) {
		t.Fatalf("numCodes = %d, want %d", numCodes, len(want))
	}
	for c := 0; c < int(numCodes); c++ {
		if got := Code(c).String(); got != want[c] {
			t.Errorf("Code(%d) = %q, want %q", c, got, want[c])
		}
	}
	if Code(200).String() != "code200" {
		t.Fatalf("out-of-range code = %s", Code(200))
	}
}
