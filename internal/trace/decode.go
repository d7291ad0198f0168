package trace

// decoder reads a journal's records back as names and Attrs for the
// exporters. The attrs it returns are reused from call to call, so a
// caller consumes them before asking for more.
type decoder struct {
	strs  []string
	attrs []Attr
	inl   [8]Attr
}

func (d *decoder) init(j *Journal) {
	d.strs, d.attrs = j.strings(), d.inl[:0]
}

func (d *decoder) attr(tag uint32, v uint64) Attr {
	a := Attr{key: d.strs[tag>>tagShift], kind: attrKind(tag&tagKind - tagAttr), v: v}
	if a.kind == kindString {
		a.str = d.strs[v]
	}
	return a
}

// spanAttrs returns s's own attributes in the order they were set.
func (d *decoder) spanAttrs(s *Span) []Attr {
	d.attrs = d.attrs[:0]
	for t, v := 0, 0; len(d.attrs) < s.nattr; t++ {
		tag := s.tags[t]
		if tag&tagKind == tagEvent {
			continue
		}
		if tag&tagOfSpan != 0 {
			d.attrs = append(d.attrs, d.attr(tag, s.vals[v]))
		}
		v++
	}
	return d.attrs
}

// items walks a span's body in append order: child spans and events.
type items struct {
	d          *decoder
	s          *Span
	k, n, t, v int // next child, events read, next tag, next value
}

func (d *decoder) items(s *Span) items { return items{d: d, s: s} }

// next returns the body's next item: a child span, or (nil, an event's
// name and attributes); ok is false past the end.
func (it *items) next() (kid *Span, name string, attrs []Attr, ok bool) {
	s, d := it.s, it.d
	if it.k < len(s.kids) && s.kids[it.k].at == it.n {
		it.k++
		return s.kids[it.k-1].sp, "", nil, true
	}
	if it.n == s.nev {
		return nil, "", nil, false
	}
	tags, vals, t, v := s.tags, s.vals, it.t, it.v
	for ; tags[t]&tagKind != tagEvent; t++ {
		v++ // an attribute of the span, set before this event
	}
	name = d.strs[tags[t]>>tagShift]
	attrs = d.attrs[:0]
	for t++; t < len(tags) && tags[t]&tagKind != tagEvent; t++ {
		if tag := tags[t]; tag&tagOfSpan == 0 {
			attrs = append(attrs, d.attr(tag, vals[v]))
		}
		v++
	}
	it.t, it.v, d.attrs = t, v, attrs
	it.n++
	return nil, name, attrs, true
}
