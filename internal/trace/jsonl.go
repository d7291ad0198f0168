package trace

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSONL export: one record per line, canonical encoding (fixed field
// order, insertion-ordered attributes, one shared string escaper), so
// deterministic workloads export byte-identical journals. The first line is
// a header record carrying the schema version; span identifiers are
// assigned in depth-first creation order at export time.
//
// Record kinds:
//
//	{"schema":1,"kind":"journal"}                                  header
//	{"kind":"begin","id":I,"parent":P,"name":N,"attrs":{...}}      span open
//	{"kind":"event","span":I,"name":N,"attrs":{...}}               event
//	{"kind":"end","id":I}                                          span close
//
// Non-finite floats have no JSON representation and are encoded as null.

// WriteJSONL writes the journal as canonical JSONL: the header, then a
// depth-first walk of the span tree. A nil journal writes nothing and
// returns nil.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	x := jsonlWriter{bw: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
	x.d.init(j)
	x.buf = append(x.buf, `{"schema":`...)
	x.buf = strconv.AppendInt(x.buf, Schema, 10)
	x.buf = append(x.buf, `,"kind":"journal"`...)
	x.line()
	x.span(j.root, 0)
	return x.bw.Flush()
}

// jsonlWriter is WriteJSONL's state: the output, the line being built and
// the depth-first span counter that names span ids.
type jsonlWriter struct {
	bw     *bufio.Writer
	buf    []byte
	nextID int64
	d      decoder
}

func (x *jsonlWriter) line() {
	x.buf = append(x.buf, '}', '\n')
	// A failed write sticks in bw: later writes are dropped and Flush
	// returns the error.
	_, _ = x.bw.Write(x.buf)
	x.buf = x.buf[:0]
}

// span writes s's begin record, its body and its end record.
func (x *jsonlWriter) span(s *Span, parent int64) {
	x.nextID++
	id := x.nextID
	x.buf = append(x.buf, `{"kind":"begin","id":`...)
	x.buf = strconv.AppendInt(x.buf, id, 10)
	x.buf = append(x.buf, `,"parent":`...)
	x.buf = strconv.AppendInt(x.buf, parent, 10)
	x.buf = append(x.buf, `,"name":`...)
	x.buf = appendJSONString(x.buf, x.d.strs[s.name])
	x.buf = appendAttrs(x.buf, `,"attrs":{`, x.d.spanAttrs(s))
	x.line()
	for it := x.d.items(s); ; {
		kid, name, attrs, ok := it.next()
		if !ok {
			break
		}
		if kid != nil {
			x.span(kid, id)
			continue
		}
		x.buf = append(x.buf, `{"kind":"event","span":`...)
		x.buf = strconv.AppendInt(x.buf, id, 10)
		x.buf = append(x.buf, `,"name":`...)
		x.buf = appendJSONString(x.buf, name)
		x.buf = appendAttrs(x.buf, `,"attrs":{`, attrs)
		x.line()
	}
	x.buf = append(x.buf, `{"kind":"end","id":`...)
	x.buf = strconv.AppendInt(x.buf, id, 10)
	x.line()
}

// appendAttrs appends attrs as a JSON object opened by field (`,"attrs":{`
// in JSONL, `,"args":{` in Chrome events) unless attrs is empty.
func appendAttrs(b []byte, field string, attrs []Attr) []byte {
	if len(attrs) == 0 {
		return b
	}
	b = append(b, field...)
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.key)
		b = append(b, ':')
		b = appendAttrValue(b, a)
	}
	return append(b, '}')
}

func appendAttrValue(b []byte, a Attr) []byte {
	switch a.kind {
	case kindString:
		return appendJSONString(b, a.str)
	case kindInt:
		return strconv.AppendInt(b, int64(a.v), 10)
	case kindFloat:
		f := math.Float64frombits(a.v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(b, `null`...)
		}
		return appendFloat(b, f)
	case kindBool:
		return strconv.AppendBool(b, a.v != 0)
	}
	return append(b, `null`...)
}

// appendFloat writes the canonical float form: the shortest 'g'
// representation, so an integral float prints like an integer.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString is the shared canonical JSON string escaper used by
// the JSONL and Chrome exporters: quote and backslash are escaped, \n \r
// \t use their short forms, other control characters use \u00XX, and
// invalid UTF-8 is replaced by U+FFFD (matching encoding/json).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		// A run of bytes that need no escaping is copied in one append.
		n := i
		for n < len(s) && s[n] >= 0x20 && s[n] < utf8.RuneSelf && s[n] != '"' && s[n] != '\\' {
			n++
		}
		if n > i {
			b = append(b, s[i:n]...)
			i = n
			continue
		}
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				b = append(b, '\\', '"')
			case c == '\\':
				b = append(b, '\\', '\\')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			default: // the other control characters
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, "�"...)
			i++
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}
