package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// sample builds a small journal exercising every attr type and nesting.
func sample() *Journal {
	j := New()
	j.Root().Str("tool", "test").Int("resources", 4)
	st := j.Begin("strategy").Str("name", "HeRAD")
	p := st.Begin("probe").F64("target", 412.5)
	p.Event("compute_stage").Int("first_task", 0).Int("end", 2).Bool("replicable", true)
	p.Event("max_packing").Int("first_task", 0).Int("cores", 1).F64("target", 412.5).Int("end", 1)
	st.Event("solution").F64("period", 400).Int("stages", 3)
	st.Event("stage").Int("index", 0).Str("type", "B").Int("cores", 2)
	return j
}

func TestJSONLRoundTrip(t *testing.T) {
	j := sample()
	var first bytes.Buffer
	if err := j.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteRecords(&second, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encode differs:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}
	// Every line must also be valid JSON for generic tooling.
	for _, line := range strings.Split(strings.TrimSpace(first.String()), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
	}
}

func TestJSONLRoundTripHostileStrings(t *testing.T) {
	j := New()
	sp := j.Begin("strategy").Str("name", "2CATAC (memo)")
	sp.Event("stage").Str("task", "日本語 \"quoted\" back\\slash").Str("ctrl", "a\x01b\nc\td\r")
	sp.Event("weird").Str("eq", "a=b").Str("empty", "")
	var first bytes.Buffer
	if err := j.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteRecords(&second, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("hostile-string re-encode differs:\n%s\nvs\n%s", first.String(), second.String())
	}
}

func TestReadJSONLRejectsBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"begin","id":1,"parent":0,"name":"x"}`)); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"schema":99,"kind":"journal"}`)); err == nil {
		t.Error("future schema accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestChromeExportValidJSONWithHostileNames(t *testing.T) {
	j := New()
	sp := j.Begin("stage \x02\"na\\me\"\n日本")
	sp.Event("ev\x1f").Str("k\x03", "v\x04")
	var buf bytes.Buffer
	if err := j.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	// run + stage span + event.
	if len(out) != 3 {
		t.Fatalf("%d chrome events, want 3", len(out))
	}
	for _, e := range out {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Errorf("chrome event missing %q: %v", key, e)
			}
		}
	}
}

func TestWriteChromeEventsSharedWriter(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeEvents(&buf, []ChromeEvent{
		{Name: "frame 0", Ph: "X", Ts: 1.5, Dur: 2, Pid: 3, Tid: "stage0/B0",
			Args: []Attr{Int("frame", 0)}},
		{Name: "frame 1", Ph: "X", Ts: 3.5, Dur: 2, Pid: 3, Tid: "stage0/B1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 2 || out[0]["ts"] != 1.5 || out[0]["args"].(map[string]any)["frame"] != 0.0 {
		t.Fatalf("unexpected decode: %v", out)
	}
}

func TestNilSafety(t *testing.T) {
	var j *Journal
	if j.Root() != nil || j.Begin("x") != nil {
		t.Error("nil journal handed out a span")
	}
	var sp *Span
	sp = sp.Str("a", "b").Int("c", 1).F64("d", 2).Bool("e", true)
	if sp != nil || sp.Begin("x") != nil || sp.Event("y") != nil || sp.Name() != "" || sp.Attrs() != nil {
		t.Error("nil span not inert")
	}
	var ev *Event
	if ev.Str("a", "b").Int("c", 1).F64("d", 2).Bool("e", true) != nil || ev.Name() != "" {
		t.Error("nil event not inert")
	}
	sc := NewScope(nil)
	if sc.Enabled() || sc.Span() != nil || sc.Event("x") != nil {
		t.Error("nil scope not inert")
	}
	ssp, done := sc.Enter("probe")
	if ssp != nil {
		t.Error("nil scope Enter returned a span")
	}
	done()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil journal JSONL: err=%v len=%d", err, buf.Len())
	}
	if err := j.WriteExplain(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil journal explain: err=%v len=%d", err, buf.Len())
	}
	if err := j.WriteChromeTrace(&buf); err != nil || !strings.Contains(buf.String(), "[") {
		t.Errorf("nil journal chrome: err=%v out=%q", err, buf.String())
	}
}

func TestDisabledPathAllocationFree(t *testing.T) {
	var j *Journal
	if n := testing.AllocsPerRun(200, func() {
		sp := j.Begin("strategy")
		sc := NewScope(sp)
		p, done := sc.Enter("probe")
		p.F64("target", 1.5)
		sc.Event("compute_stage").Int("first_task", 0).Bool("ok", true)
		done()
	}); n != 0 {
		t.Fatalf("disabled journal path allocates %v/op", n)
	}
}

func TestScopeEnterGroupsEvents(t *testing.T) {
	j := New()
	sc := NewScope(j.Begin("strategy"))
	if !sc.Enabled() {
		t.Fatal("scope with span disabled")
	}
	p, done := sc.Enter("probe")
	p.F64("target", 2)
	sc.Event("inner")
	done()
	sc.Event("outer")
	recs := j.Records()
	// header, run, strategy, probe(begin, event, end), outer event, ends.
	var names []string
	for _, r := range recs {
		if r.Kind == "begin" || r.Kind == "event" {
			names = append(names, r.Kind+":"+r.Name)
		}
	}
	want := []string{"begin:run", "begin:strategy", "begin:probe", "event:inner", "event:outer"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("record order %v, want %v", names, want)
	}
}

// TestConcurrentSubtreeDeterminism pins the PlanBatch contract: spans
// created serially, each appended from its own goroutine, export
// byte-identically regardless of interleaving.
func TestConcurrentSubtreeDeterminism(t *testing.T) {
	build := func() []byte {
		j := New()
		spans := make([]*Span, 8)
		for i := range spans {
			spans[i] = j.Begin("request").Int("index", i)
		}
		var wg sync.WaitGroup
		for i, sp := range spans {
			wg.Add(1)
			go func(i int, sp *Span) {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					sp.Event("decision").Int("k", k)
				}
			}(i, sp)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := build()
	for i := 0; i < 4; i++ {
		if !bytes.Equal(first, build()) {
			t.Fatal("concurrent subtree export is not deterministic")
		}
	}
}

func TestExplainCapsNoisyEvents(t *testing.T) {
	j := New()
	sp := j.Begin("strategy").Str("name", "FERTAC")
	for i := 0; i < explainEventCap+5; i++ {
		sp.Event("max_packing").Int("i", i)
	}
	sp.Event("solution").F64("period", 10)
	var buf bytes.Buffer
	if err := j.WriteExplain(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "max_packing ×5"); got != 1 {
		t.Errorf("elision summary missing:\n%s", out)
	}
	if got := strings.Count(out, "max_packing i="); got != explainEventCap {
		t.Errorf("%d max_packing lines, want %d:\n%s", got, explainEventCap, out)
	}
	if !strings.Contains(out, "solution period=10") {
		t.Errorf("solution line missing:\n%s", out)
	}
}
