package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// model is a journal as the tests build it: the same tree, kept as plain
// Go values, so that an export can be checked against what was journaled.
type model struct {
	name  string
	attrs []Attr
	items []*model // events (span false) and child spans, in order
	span  bool
	last  *model // the span's last event
	cur   *Event // what Span.Event returned for it
}

// mirror drives a Span and its model together.
type mirror struct {
	sp *Span
	m  *model
}

func (x mirror) begin(name string) mirror {
	c := &model{name: name, span: true}
	x.m.items = append(x.m.items, c)
	return mirror{x.sp.Begin(name), c}
}

func (x mirror) event(name string) {
	e := &model{name: name}
	x.m.items = append(x.m.items, e)
	x.m.last, x.m.cur = e, x.sp.Event(name)
}

// set sets a on the span, or on its last event when ev is true, through
// the same setter an emit site would call.
func (x mirror) set(a Attr, ev bool) {
	target := x.m
	if ev {
		target = x.m.last
	}
	target.attrs = append(target.attrs, a)
	f := math.Float64frombits(a.v)
	switch {
	case ev && a.kind == kindString:
		x.m.cur.Str(a.key, a.str)
	case ev && a.kind == kindInt:
		x.m.cur.Int(a.key, int(int64(a.v)))
	case ev && a.kind == kindFloat:
		x.m.cur.F64(a.key, f)
	case ev:
		x.m.cur.Bool(a.key, a.v != 0)
	case a.kind == kindString:
		x.sp.Str(a.key, a.str)
	case a.kind == kindInt:
		x.sp.Int(a.key, int(int64(a.v)))
	case a.kind == kindFloat:
		x.sp.F64(a.key, f)
	default:
		x.sp.Bool(a.key, a.v != 0)
	}
}

// jsonText is s as it reads after a JSON round trip: each invalid UTF-8
// byte becomes U+FFFD.
func jsonText(s string) string { return string([]rune(s)) }

// wantLines renders the model as the decoded JSONL records it must come
// back as, one string per line.
func wantLines(root *model) []string {
	out := []string{"journal schema=1"}
	id := 0
	var walk func(m *model, parent int)
	walk = func(m *model, parent int) {
		id++
		me := id
		out = append(out, fmt.Sprintf("begin id=%d parent=%d name=%q%s", me, parent, jsonText(m.name), wantAttrs(m.attrs)))
		for _, it := range m.items {
			if it.span {
				walk(it, me)
				continue
			}
			out = append(out, fmt.Sprintf("event span=%d name=%q%s", me, jsonText(it.name), wantAttrs(it.attrs)))
		}
		out = append(out, fmt.Sprintf("end id=%d", me))
	}
	walk(root, 0)
	return out
}

func wantAttrs(attrs []Attr) string {
	var b strings.Builder
	for _, a := range attrs {
		fmt.Fprintf(&b, " %q:", jsonText(a.key))
		switch a.kind {
		case kindString:
			fmt.Fprintf(&b, "%q", jsonText(a.str))
		case kindInt:
			fmt.Fprintf(&b, "i%d", int64(a.v))
		case kindFloat:
			if f := math.Float64frombits(a.v); math.IsNaN(f) || math.IsInf(f, 0) {
				b.WriteString("null")
			} else {
				fmt.Fprintf(&b, "f%x", a.v)
			}
		case kindBool:
			fmt.Fprintf(&b, "%t", a.v != 0)
		}
	}
	return b.String()
}

// gotLines decodes a JSONL export with encoding/json, keeping attribute
// order and duplicate keys, into wantLines' form. A number decodes as an
// integer when the attribute was journaled as one (isInt), so the check
// is exact for both kinds.
func gotLines(t *testing.T, jsonl []byte, isInt func(line, attr int) bool) []string {
	t.Helper()
	var out []string
	for n, line := range strings.Split(strings.TrimSuffix(string(jsonl), "\n"), "\n") {
		d := json.NewDecoder(strings.NewReader(line))
		d.UseNumber()
		tok := func() json.Token {
			tk, err := d.Token()
			if err != nil {
				t.Fatalf("line %d %q: %v", n, line, err)
			}
			return tk
		}
		fields := map[string]string{}
		attrs := ""
		tok() // {
		for d.More() {
			key := tok().(string)
			if key != "attrs" {
				fields[key] = fmt.Sprint(tok())
				continue
			}
			tok() // {
			for i := 0; d.More(); i++ {
				k := tok().(string)
				switch v := tok().(type) {
				case string:
					attrs += fmt.Sprintf(" %q:%q", k, v)
				case json.Number:
					if isInt(n, i) {
						iv, err := strconv.ParseInt(string(v), 10, 64)
						if err != nil {
							t.Fatalf("line %d: %v", n, err)
						}
						attrs += fmt.Sprintf(" %q:i%d", k, iv)
					} else {
						f, err := strconv.ParseFloat(string(v), 64)
						if err != nil {
							t.Fatalf("line %d: %v", n, err)
						}
						attrs += fmt.Sprintf(" %q:f%x", k, math.Float64bits(f))
					}
				case nil:
					attrs += fmt.Sprintf(" %q:null", k)
				case bool:
					attrs += fmt.Sprintf(" %q:%t", k, v)
				}
			}
			tok() // }
		}
		switch kind := fields["kind"]; kind {
		case "journal":
			out = append(out, "journal schema="+fields["schema"])
		case "begin":
			out = append(out, fmt.Sprintf("begin id=%s parent=%s name=%q%s", fields["id"], fields["parent"], fields["name"], attrs))
		case "event":
			out = append(out, fmt.Sprintf("event span=%s name=%q%s", fields["span"], fields["name"], attrs))
		default:
			out = append(out, "end id="+fields["id"])
		}
	}
	return out
}

// checkRoundTrip exports j as JSONL and checks that it decodes to root.
func checkRoundTrip(t *testing.T, j *Journal, root *model) {
	t.Helper()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Which attributes are integers, line by line, in export order.
	var ints [][]bool
	kinds := func(attrs []Attr) []bool {
		k := make([]bool, len(attrs))
		for i, a := range attrs {
			k[i] = a.kind == kindInt
		}
		return k
	}
	var walk func(m *model)
	walk = func(m *model) {
		ints = append(ints, kinds(m.attrs))
		for _, it := range m.items {
			if it.span {
				walk(it)
			} else {
				ints = append(ints, kinds(it.attrs))
			}
		}
		ints = append(ints, nil)
	}
	ints = append(ints, nil) // header
	walk(root)
	got := gotLines(t, buf.Bytes(), func(line, attr int) bool { return ints[line][attr] })
	want := wantLines(root)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// FuzzJournalRoundTrip builds a random tree of spans and events from the
// input — hostile strings, events of more than eight attributes, Begin
// and Event interleaved across sibling spans, hundreds of distinct
// strings — and checks that WriteJSONL decodes back to exactly
// what was journaled.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"))
	f.Add([]byte("\x10\x21\x32\x43\x54\x65\x76\x87\x98\xa9\xba\xcb\xdc\xed\xfe\xff"))
	f.Add([]byte("a\xffb\"q\\\n\t\x01日本\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07\x03\x03"))
	f.Add(bytes.Repeat([]byte{0x06, 0x17, 0x28, 0x35, 0x4f}, 40))
	f.Add([]byte("\x02\xff\x0e\x05\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j := New()
		root := &model{name: "run", span: true}
		spans := []mirror{{j.Root(), root}}
		in := bytes.NewReader(data)
		next := func() int {
			b, err := in.ReadByte()
			if err == io.EOF {
				return -1
			}
			return int(b)
		}
		distinct := 0
		str := func() string {
			n := next()
			switch {
			case n < 0:
				return ""
			case n%4 == 0: // a fresh string no other call returns
				distinct++
				return "s" + strconv.Itoa(distinct)
			}
			// Raw input bytes: quotes, control characters, invalid UTF-8.
			b := make([]byte, n%9)
			in.Read(b)
			return string(b)
		}
		for op := next(); op >= 0; op = next() {
			x := spans[op>>3%len(spans)]
			if op == 0xff { // a burst of distinct names and values, past what 8 bits name
				for i := 0; i < 300 && distinct < 1000; i++ {
					distinct++
					x.event("burst" + strconv.Itoa(distinct))
					x.set(String("v", "value"+strconv.Itoa(distinct)), true)
				}
				continue
			}
			switch op & 7 {
			case 0, 1:
				spans = append(spans, x.begin(str()))
			case 2, 3:
				x.event(str())
			case 4: // one event of more than eight attributes
				x.event(str())
				for i := 0; i < 9+op%5; i++ {
					x.set(Int(str(), int64(i)<<40-int64(op)), true)
				}
			default:
				v := next()
				var a Attr
				switch v & 3 {
				case 0:
					a = String(str(), str())
				case 1:
					a = Int(str(), int64(v)*-0x1234567890)
				case 2:
					a = Float64(str(), []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 0.1, 1e300, float64(v)}[v%6])
				default:
					a = Bool(str(), v&4 != 0)
				}
				x.set(a, op&1 != 0 && x.m.last != nil)
			}
		}
		checkRoundTrip(t, j, root)
	})
}

// TestJournalManyStrings journals more distinct strings than a 16-bit id
// could name, as span names, event names, keys and values.
func TestJournalManyStrings(t *testing.T) {
	j := New()
	root := &model{name: "run", span: true}
	x := mirror{j.Root(), root}
	for i := 0; i < 1<<16+10; i++ {
		s := strconv.Itoa(i)
		if i%1000 == 0 {
			x = mirror{j.Root(), root}.begin("span" + s)
		}
		x.event("event" + s)
		x.set(String("key"+s, "value"+s), true)
	}
	checkRoundTrip(t, j, root)
}

// TestJournalConcurrentIntern has sibling spans written from their own
// goroutines, each journaling strings the others journal too and strings
// only it journals, so that lookups race with first sightings and with
// the intern table being replaced by a larger one.
func TestJournalConcurrentIntern(t *testing.T) {
	j := New()
	root := &model{name: "run", span: true}
	spans := make([]mirror, 4)
	for i := range spans {
		spans[i] = mirror{j.Root(), root}.begin("worker")
	}
	var wg sync.WaitGroup
	for w, x := range spans {
		wg.Add(1)
		go func(w int, x mirror) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				x.event("shared" + strconv.Itoa(i))
				x.set(String("own", fmt.Sprintf("w%d-%d", w, i)), true)
				x.set(Int("shared"+strconv.Itoa(i%97), int64(i)), true)
			}
		}(w, x)
	}
	wg.Wait()
	checkRoundTrip(t, j, root)
}
