package obs

import "sync"

// Windowed time series: a fixed-capacity ring buffer of (tick, value)
// points. Where a Gauge only remembers the last write, a Series keeps the
// recent history — the substrate for live occupancy and weight-estimate
// views (the streampu sampler's per-window series, the -stats -json
// report's tails). The ring never grows after creation, so the append path stays
// allocation-free, and snapshots replay points oldest-first in append
// order, keeping exports of deterministic workloads byte-identical.

// Point is one sample of a Series: a caller-defined tick (sample index,
// sim time, wall ns — the producer chooses the clock) and the value.
type Point struct {
	Tick  int64   `json:"tick"`
	Value float64 `json:"value"`
}

// Series is a fixed-capacity ring buffer of points. Create via
// Registry.Series; a nil *Series is the disabled sink — every method is a
// no-op.
type Series struct {
	mu    sync.Mutex
	buf   []Point
	head  int   // index of the oldest point
	n     int   // live points, ≤ len(buf)
	total int64 // points ever appended
}

// DefaultSeriesCap is the ring capacity of every registered series:
// enough history for a few minutes of second-granularity sampling without
// unbounded growth.
const DefaultSeriesCap = 128

// newSeries returns a series with the given ring capacity (> 0).
func newSeries(capacity int) *Series {
	return &Series{buf: make([]Point, capacity)}
}

// Append records one point, evicting the oldest when the ring is full.
// No-op on a nil receiver; never allocates.
func (s *Series) Append(tick int64, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	i := s.head + s.n
	if s.n == len(s.buf) {
		s.head++
		if s.head == len(s.buf) {
			s.head = 0
		}
	} else {
		s.n++
	}
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	s.buf[i] = Point{Tick: tick, Value: v}
	s.total++
	s.mu.Unlock()
}

// Total returns the number of points ever appended, including evicted
// ones (0 on a nil receiver).
func (s *Series) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Last returns the most recent point and whether one exists.
func (s *Series) Last() (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Point{}, false
	}
	i := s.head + s.n - 1
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	return s.buf[i], true
}

// Tail returns the last min(n, Len) points oldest-first. n ≤ 0 returns
// the whole live window. Nil receiver → nil.
func (s *Series) Tail(n int) []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > s.n {
		n = s.n
	}
	if n == 0 {
		return nil
	}
	out := make([]Point, n)
	start := s.head + s.n - n
	for i := range out {
		j := start + i
		if j >= len(s.buf) {
			j -= len(s.buf)
		}
		out[i] = s.buf[j]
	}
	return out
}
