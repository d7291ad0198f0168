// Package obs is the repository's telemetry spine: a zero-dependency
// metrics layer (counters, gauges, wall-clock timers, log-bucketed
// histograms) behind a Registry with deterministic snapshot and JSON
// export. The scheduling stack reports algorithm-level cost series
// through it (binary-search probes, DP cells, recursion nodes, memo
// hits), cmd/ampsched renders it behind -stats, and cmd/experiments
// writes it as a machine-readable metrics.json run report.
//
// Two properties shape the design:
//
//   - Nil-safe handles. Every method on every type is a no-op on a nil
//     receiver, and a nil *Registry hands out nil handles. Code is
//     instrumented unconditionally; whether anything is recorded is
//     decided solely by whether a registry was supplied.
//
//   - Allocation-free when disabled. The nil path allocates nothing:
//     Sub returns nil, handle lookups return nil, and updates are a
//     single nil check. TestDisabledPathAllocatesNothing pins this at 0
//     allocations.
//
// Handle updates are atomic, so concurrent writers (strategy.PlanBatch
// workers, streampu pipeline stages) can share one registry; counter
// sums are order-independent, keeping snapshots of deterministic
// workloads deterministic regardless of scheduling interleavings.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric types in snapshots and JSON exports.
type Kind string

// The metric kinds. Timer samples carry wall-clock totals and are
// therefore host-dependent; deterministic comparisons (the metrics.json
// determinism test) exclude them by this kind.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindTimer   Kind = "timer"
	// KindLogHistogram marks streaming log-bucketed histograms with
	// mergeable quantile snapshots (loghist.go).
	KindLogHistogram Kind = "loghistogram"
	// KindSeries marks fixed-capacity ring-buffer time series (series.go).
	KindSeries Kind = "series"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates wall-clock durations: an observation count and a
// total. Timer samples are host-dependent by nature.
type Timer struct{ count, ns atomic.Int64 }

// Observe records one duration. No-op on a nil receiver.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.count.Add(1)
		t.ns.Add(int64(d))
	}
}

var noopStop = func() {}

// Start begins timing and returns the function that records the elapsed
// duration. On a nil receiver it returns a shared no-op (no clock read,
// no allocation).
func (t *Timer) Start() func() {
	if t == nil {
		return noopStop
	}
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Count returns the number of observations (0 on a nil receiver).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration (0 on a nil receiver).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// metric is one registered named series.
type metric struct {
	kind Kind
	c    *Counter
	g    *Gauge
	t    *Timer
	lh   *LogHistogram
	s    *Series
}

// store is the shared state behind a Registry and all its Sub views.
type store struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// Registry hands out named metric handles and snapshots them. Create
// one with NewRegistry; derive prefixed views with Sub. A nil *Registry
// is the disabled sink: it returns nil handles and empty snapshots.
type Registry struct {
	store  *store
	prefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{store: &store{byName: map[string]*metric{}}}
}

// Sub returns a view of r that prefixes every metric name with
// "prefix." — the per-strategy scoping used by the strategy layer. Sub
// of a nil registry is nil (and allocates nothing).
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{store: r.store, prefix: r.prefix + prefix + "."}
}

func (r *Registry) lookup(name string, kind Kind, mk func() *metric) *metric {
	full := r.prefix + name
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	m, ok := r.store.byName[full]
	if !ok {
		m = mk()
		r.store.byName[full] = m
		return m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", full, m.kind, kind))
	}
	return m
}

// Counter returns the counter registered under name, creating it on
// first use. Nil registry → nil counter. It panics when name is already
// registered with a different kind (a programming error).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, func() *metric {
		return &metric{kind: KindCounter, c: &Counter{}}
	}).c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registry → nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, func() *metric {
		return &metric{kind: KindGauge, g: &Gauge{}}
	}).g
}

// Timer returns the timer registered under name, creating it on first
// use. Nil registry → nil timer.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindTimer, func() *metric {
		return &metric{kind: KindTimer, t: &Timer{}}
	}).t
}

// LogHistogram returns the streaming log-bucketed histogram registered
// under name, creating it on first use. Nil registry → nil histogram.
// All LogHistograms share one geometric bucket grid, so any two are
// mergeable.
func (r *Registry) LogHistogram(name string) *LogHistogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindLogHistogram, func() *metric {
		return &metric{kind: KindLogHistogram, lh: NewLogHistogram()}
	}).lh
}

// Series returns the ring-buffer time series registered under name,
// creating it with the given capacity on first use (later calls keep the
// original capacity; ≤ 0 means DefaultSeriesCap). Nil registry → nil
// series.
func (r *Registry) Series(name string, capacity int) *Series {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindSeries, func() *metric {
		return &metric{kind: KindSeries, s: NewSeries(capacity)}
	}).s
}

// Bucket is one histogram bucket of a Sample: the count of observations
// at most LE (non-cumulative per bucket).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Sample is one named series in a snapshot. The populated fields depend
// on Kind: counters use Count; gauges use Value; timers use
// Count and TotalNs; log histograms use Count, Sum, Buckets and
// Quantiles; ring series use Count (points ever appended), Value (last
// point) and Points (the live window, oldest first).
type Sample struct {
	Name      string            `json:"name"`
	Kind      Kind              `json:"kind"`
	Count     int64             `json:"count,omitempty"`
	Value     float64           `json:"value,omitempty"`
	TotalNs   int64             `json:"total_ns,omitempty"`
	Sum       float64           `json:"sum,omitempty"`
	Buckets   []Bucket          `json:"buckets,omitempty"`
	Quantiles *QuantileSnapshot `json:"quantiles,omitempty"`
	Points    []Point           `json:"points,omitempty"`
}

// Snapshot returns every registered series sorted by name — a
// deterministic export order for identical workloads. A nil registry
// snapshots empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.store.mu.Lock()
	names := make([]string, 0, len(r.store.byName))
	for name := range r.store.byName {
		names = append(names, name)
	}
	metrics := make([]*metric, len(names))
	sort.Strings(names)
	for i, name := range names {
		metrics[i] = r.store.byName[name]
	}
	r.store.mu.Unlock()

	out := make([]Sample, len(names))
	for i, m := range metrics {
		s := Sample{Name: names[i], Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Count = m.c.Value()
		case KindGauge:
			s.Value = m.g.Value()
		case KindTimer:
			s.Count = m.t.Count()
			s.TotalNs = int64(m.t.Total())
		case KindLogHistogram:
			q := m.lh.Quantiles()
			s.Count = q.Count
			s.Sum = q.Sum
			s.Quantiles = &q
			s.Buckets = m.lh.buckets()
		case KindSeries:
			s.Count = m.s.Total()
			if p, ok := m.s.Last(); ok {
				s.Value = p.Value
			}
			s.Points = m.s.Tail(0)
		}
		out[i] = s
	}
	return out
}

// Slug normalizes a display name ("OTAC (B)", "2CATAC (memo)") into a
// metric-name segment: lowercase, with every run of non-alphanumeric
// characters collapsed to a single underscore.
func Slug(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	pendingSep := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			if pendingSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			pendingSep = false
			b.WriteRune(r)
		default:
			pendingSep = true
		}
	}
	return b.String()
}
