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
	bw := bufio.NewWriter(w)
	var buf []byte
	line := func() {
		buf = append(buf, '}', '\n')
		// A failed write sticks in bw: later writes are dropped and Flush
		// returns the error.
		_, _ = bw.Write(buf)
		buf = buf[:0]
	}
	buf = append(buf, `{"schema":`...)
	buf = strconv.AppendInt(buf, Schema, 10)
	buf = append(buf, `,"kind":"journal"`...)
	line()
	var nextID int64
	var walk func(s *Span, parent int64)
	walk = func(s *Span, parent int64) {
		nextID++
		id := nextID
		buf = append(buf, `{"kind":"begin","id":`...)
		buf = strconv.AppendInt(buf, id, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, parent, 10)
		buf = append(buf, `,"name":`...)
		buf = appendJSONString(buf, s.name)
		buf = appendAttrs(buf, s.attrs)
		line()
		for _, it := range s.items {
			if it.sp != nil {
				walk(it.sp, id)
				continue
			}
			buf = append(buf, `{"kind":"event","span":`...)
			buf = strconv.AppendInt(buf, id, 10)
			buf = append(buf, `,"name":`...)
			buf = appendJSONString(buf, it.ev.name)
			buf = appendAttrs(buf, it.ev.attrs)
			line()
		}
		buf = append(buf, `{"kind":"end","id":`...)
		buf = strconv.AppendInt(buf, id, 10)
		line()
	}
	j.mu.Lock()
	walk(j.root, 0)
	j.mu.Unlock()
	return bw.Flush()
}

// appendAttrs appends `,"attrs":{...}` unless attrs is empty.
func appendAttrs(b []byte, attrs []Attr) []byte {
	if len(attrs) == 0 {
		return b
	}
	b = append(b, `,"attrs":{`...)
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
		return strconv.AppendInt(b, a.i, 10)
	case kindFloat:
		if math.IsNaN(a.f) || math.IsInf(a.f, 0) {
			return append(b, `null`...)
		}
		return appendFloat(b, a.f)
	case kindBool:
		return strconv.AppendBool(b, a.b)
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
			case c < 0x20:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			default:
				b = append(b, c)
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
