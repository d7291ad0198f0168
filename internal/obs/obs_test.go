package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"

	"ampsched/internal/obs/flight"
)

func TestCounterGaugeTimerHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	tm := r.Timer("t")
	tm.Observe(3 * time.Millisecond)
	tm.Observe(2 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 5*time.Millisecond {
		t.Errorf("timer = %d obs / %v", tm.Count(), tm.Total())
	}
	h := r.LogHistogram("h")
	for _, v := range []float64{1, 10, 11, 1e6} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
}

func TestHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name returned different counters")
	}
	if r.Sub("a").Counter("x") != r.Sub("a").Counter("x") {
		t.Error("same scoped name returned different counters")
	}
	if r.Counter("x") == r.Sub("a").Counter("x") {
		t.Error("scoped and unscoped name share a counter")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r.Gauge("dup")
}

func TestNilRegistryAndHandlesAreNoops(t *testing.T) {
	var r *Registry
	m := r.Sub("scope")
	if m != nil {
		t.Fatal("Sub of nil registry is not nil")
	}
	m.Counter("c").Inc()
	m.Counter("c").Add(3)
	m.Gauge("g").Set(1)
	m.Timer("t").Observe(time.Second)
	m.Timer("t").Start()()
	m.LogHistogram("h").Observe(7)
	if got := m.Snapshot(); got != nil {
		t.Errorf("nil snapshot = %v", got)
	}
	if m.Counter("c").Value() != 0 || m.Gauge("g").Value() != 0 ||
		m.Timer("t").Count() != 0 || m.LogHistogram("h").Count() != 0 {
		t.Error("nil handles returned non-zero values")
	}
}

// TestDisabledPathAllocatesNothing pins the core obs guarantee: with a
// nil registry, the full handle-lookup-and-update sequence used by the
// instrumented schedulers performs zero heap allocations.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(200, func() {
		m := r.Sub("fertac")
		m.Counter("schedule.calls").Inc()
		m.Counter("sched.search.iterations").Add(17)
		m.Gauge("planbatch.workers").Set(8)
		m.Timer("schedule.ns").Start()()
		m.LogHistogram("planbatch.request_us").Observe(12)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f per run, want 0", allocs)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(2)
	r.Gauge("a.gauge").Set(0.25)
	r.Timer("m.timer").Observe(time.Microsecond)
	r.LogHistogram("h.hist").Observe(5)
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	want := []string{"a.gauge", "h.hist", "m.timer", "z.count"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", names, want)
		}
	}
	if snap[0].Kind != KindGauge || snap[0].Value != 0.25 {
		t.Errorf("gauge sample %+v", snap[0])
	}
	if snap[1].Kind != KindLogHistogram || snap[1].Count != 1 || snap[1].Quantiles == nil || len(snap[1].Buckets) != 1 {
		t.Errorf("histogram sample %+v", snap[1])
	}
	if snap[2].Kind != KindTimer || snap[2].Count != 1 || snap[2].TotalNs != 1000 {
		t.Errorf("timer sample %+v", snap[2])
	}
	if snap[3].Kind != KindCounter || snap[3].Count != 2 {
		t.Errorf("counter sample %+v", snap[3])
	}
}

// TestConcurrentUpdates exercises shared handles from many goroutines —
// run with -race, it doubles as the data-race check for the atomic
// update paths.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("c").Inc()
				r.Sub("s").Counter("c").Add(2)
				r.Gauge("g").Set(float64(i))
				r.Timer("t").Observe(time.Nanosecond)
				r.LogHistogram("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Sub("s").Counter("c").Value(); got != 2*workers*each {
		t.Errorf("scoped counter = %d, want %d", got, 2*workers*each)
	}
	if got := r.Timer("t").Count(); got != workers*each {
		t.Errorf("timer count = %d, want %d", got, workers*each)
	}
	if got := r.LogHistogram("h").Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"HeRAD":          "herad",
		"2CATAC":         "2catac",
		"2CATAC (memo)":  "2catac_memo",
		"OTAC (B)":       "otac_b",
		"OTAC (L)":       "otac_l",
		"FERTAC":         "fertac",
		"Brute":          "brute",
		"  weird--Name ": "weird_name",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReportJSON(t *testing.T) {
	r := NewRegistry()
	r.Sub("herad").Counter("dp.cells").Add(42)
	r.Gauge("planbatch.workers").Set(4)
	var buf bytes.Buffer
	if err := NewReport("test", r).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != ReportSchema || rep.Tool != "test" {
		t.Errorf("header %+v", rep)
	}
	if rep.Runtime.GoVersion == "" || rep.Runtime.NumCPU <= 0 {
		t.Errorf("runtime section %+v", rep.Runtime)
	}
	if len(rep.Series) != 2 || rep.Series[0].Name != "herad.dp.cells" || rep.Series[0].Count != 42 {
		t.Errorf("series %+v", rep.Series)
	}
	// The series section of two snapshots of the same registry must be
	// byte-identical (the determinism contract).
	a, _ := json.Marshal(r.Snapshot())
	b, _ := json.Marshal(r.Snapshot())
	if !bytes.Equal(a, b) {
		t.Error("snapshots of an unchanged registry differ")
	}
}

// TestSnapshotDuringWrites reads the registry and a flight recorder while
// a writer keeps appending to a series, observing into a histogram and
// recording flight events. Under -race this is the read path against live
// writers: every snapshot must encode, each series and histogram count
// must never go backwards, and no series point or flight event may be
// torn (the writer keeps value and tick in a fixed relation).
func TestSnapshotDuringWrites(t *testing.T) {
	reg := NewRegistry()
	rec := flight.New(64)
	series := reg.Series("pipe.occupancy")
	lat := reg.LogHistogram("pipe.latency_us")

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for tick := int64(0); ; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			series.Append(tick, float64(tick%7))
			lat.Observe(float64(10 + tick%1000))
			rec.Record(flight.Event{Code: flight.CodeWindow, Tick: tick, A: float64(tick)})
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := map[string]int64{}
			for i := 0; i < 25; i++ {
				snap := reg.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("snapshot does not encode: %v", err)
				}
				for _, s := range snap {
					if s.Count < last[s.Name] {
						t.Errorf("%s count went back from %d to %d", s.Name, last[s.Name], s.Count)
					}
					last[s.Name] = s.Count
					for _, p := range s.Points {
						if p.Value != float64(p.Tick%7) {
							t.Errorf("torn series point %+v", p)
						}
					}
				}
				for _, e := range rec.Snapshot() {
					if e.A != float64(e.Tick) {
						t.Errorf("torn flight event %+v", e)
					}
				}
				if err := rec.WriteDump(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
