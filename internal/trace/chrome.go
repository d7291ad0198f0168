package trace

import (
	"bufio"
	"io"
	"strconv"
)

// The one Chrome trace-event writer of the repository: the journal's
// decision-tree view and any timeline appended to it (internal/streampu's
// execution trace, via Tracer.ChromeEvents) serialize through
// Journal.WriteChromeTrace, so the JSON escaping and number formatting live
// in exactly one place. Load the output at chrome://tracing or in Perfetto.

// ChromeEvent is one trace-event record ("X" complete events by
// convention). Args order is preserved in the output.
type ChromeEvent struct {
	Name string
	Ph   string
	Ts   float64 // µs
	Dur  float64 // µs
	Pid  int
	Tid  string
	Args []Attr
}

// chromeWriter streams the array WriteChromeTrace writes, one event at a
// time.
type chromeWriter struct {
	bw  *bufio.Writer
	buf []byte
	n   int
}

func newChromeWriter(w io.Writer) *chromeWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	return &chromeWriter{bw: bw}
}

func (cw *chromeWriter) event(e ChromeEvent) {
	buf := cw.buf[:0]
	if cw.n > 0 {
		buf = append(buf, ',', '\n')
	}
	cw.n++
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, e.Name)
	buf = append(buf, `,"ph":`...)
	buf = appendJSONString(buf, e.Ph)
	buf = append(buf, `,"ts":`...)
	buf = appendFloat(buf, e.Ts)
	buf = append(buf, `,"dur":`...)
	buf = appendFloat(buf, e.Dur)
	buf = append(buf, `,"pid":`...)
	buf = strconv.AppendInt(buf, int64(e.Pid), 10)
	buf = append(buf, `,"tid":`...)
	buf = appendJSONString(buf, e.Tid)
	buf = appendAttrs(buf, `,"args":{`, e.Args)
	buf = append(buf, '}')
	// A failed write sticks in bw: later writes are dropped and close
	// returns the error.
	_, _ = cw.bw.Write(buf)
	cw.buf = buf
}

func (cw *chromeWriter) close() error {
	if cw.n > 0 {
		cw.bw.WriteByte('\n')
	}
	cw.bw.WriteString("]\n")
	return cw.bw.Flush()
}

// WriteChromeTrace renders the journal on a virtual timeline: every span
// is a complete event covering its subtree, every journal event an
// instant inside it, with one logical tick per item. Decision journals
// carry no wall-clock data (that is what keeps them deterministic), so
// the time axis shows decision order, not duration. Tracks (tid) group
// the tree by top-level span; the tree is process (pid) 0. The timeline
// events follow the tree in the same array, as given. A nil journal writes
// the timeline alone.
func (j *Journal) WriteChromeTrace(w io.Writer, timeline ...ChromeEvent) error {
	cw := newChromeWriter(w)
	if j != nil {
		var d decoder
		d.init(j)
		root := d.strs[j.root.name]
		d.chromeSpan(cw, j.root, root, 0, 0)
	}
	for _, e := range timeline {
		cw.event(e)
	}
	return cw.close()
}

// chromeSpan writes s, opened at tick, and its body, as WriteChromeTrace
// lays them out; it returns the tick after s closes.
func (d *decoder) chromeSpan(cw *chromeWriter, s *Span, tid string, depth, tick int) int {
	name := d.strs[s.name]
	if depth == 1 {
		tid = name
	}
	cw.event(ChromeEvent{Name: name, Ph: "X", Tid: tid,
		Ts: float64(tick), Dur: float64(ticks(s)), Args: d.spanAttrs(s)})
	tick++
	for it := d.items(s); ; {
		kid, name, attrs, ok := it.next()
		if !ok {
			break
		}
		if kid != nil {
			tick = d.chromeSpan(cw, kid, tid, depth+1, tick)
			continue
		}
		cw.event(ChromeEvent{Name: name, Ph: "X", Tid: tid, Ts: float64(tick), Dur: 1, Args: attrs})
		tick++
	}
	return tick + 1
}

// ticks is the extent of s on WriteChromeTrace's timeline: one tick to
// open it, one per event, its child spans' extents, and one to close it.
func ticks(s *Span) int {
	n := 2 + s.nev
	for _, c := range s.kids {
		n += ticks(c.sp)
	}
	return n
}
