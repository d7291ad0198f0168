package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Explain rendering: a deterministic, human-readable narrative of the
// journal. Spans indent their bodies; events print as "name key=value
// ...". High-volume event streams (the per-call max_packing /
// compute_stage / dp_cell records) are capped per span: after
// explainEventCap occurrences of one event name within one span the
// remaining ones are elided and summarized at the end of the span, which
// keeps the narrative readable while staying byte-deterministic.

// explainEventCap is the number of same-named events shown per span
// before the remainder is collapsed into a "(+N more)" summary line.
const explainEventCap = 8

// WriteExplain renders the journal as an indented narrative. A nil
// journal writes nothing.
func (j *Journal) WriteExplain(w io.Writer) error {
	if j == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var d decoder
	d.init(j)
	d.writeExplain(bw, j.root, 0)
	return bw.Flush()
}

func (d *decoder) writeExplain(w *bufio.Writer, s *Span, depth int) {
	indent := strings.Repeat("  ", depth)
	writeLine(w, indent, d.strs[s.name], d.spanAttrs(s))
	body := indent + "  "
	shown := map[string]int{}
	elided := map[string]int{}
	for it := d.items(s); ; {
		kid, name, attrs, ok := it.next()
		if !ok {
			break
		}
		switch {
		case kid != nil:
			d.writeExplain(w, kid, depth+1)
		case shown[name] >= explainEventCap:
			elided[name]++
		default:
			shown[name]++
			writeLine(w, body, name, attrs)
		}
	}
	if len(elided) > 0 {
		names := make([]string, 0, len(elided))
		for name := range elided {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s ×%d", name, elided[name])
		}
		fmt.Fprintf(w, "%s(+ %s elided)\n", body, strings.Join(parts, ", "))
	}
}

// writeLine writes one narrative line: indent, name, attributes.
func writeLine(w *bufio.Writer, indent, name string, attrs []Attr) {
	w.WriteString(indent)
	w.WriteString(name)
	w.WriteString(formatAttrs(attrs))
	w.WriteByte('\n')
}

// formatAttrs renders attributes as " k=v k=v"; strings containing
// spaces, quotes or control characters are quoted.
func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.key)
		b.WriteByte('=')
		switch a.kind {
		case kindString:
			if strings.ContainsAny(a.str, " \t\n\r\"=") || a.str == "" {
				b.WriteString(strconv.Quote(a.str))
			} else {
				b.WriteString(a.str)
			}
		case kindInt:
			b.WriteString(strconv.FormatInt(int64(a.v), 10))
		case kindFloat:
			if f := math.Float64frombits(a.v); math.IsNaN(f) || math.IsInf(f, 0) {
				fmt.Fprintf(&b, "%v", f)
			} else {
				b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
			}
		case kindBool:
			b.WriteString(strconv.FormatBool(a.v != 0))
		}
	}
	return b.String()
}
