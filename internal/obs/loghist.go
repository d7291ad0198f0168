package obs

import (
	"math"
	"sync/atomic"
)

// Streaming latency histograms: log-bucketed counters with mergeable
// quantile snapshots. A LogHistogram always uses the one shared
// geometric bucket grid — logSubBuckets buckets per power of two — so
// two instances are always structurally mergeable (Merge is a plain
// per-bucket add) and quantile estimates carry a bounded relative error
// of at most 2^(1/logSubBuckets)−1 ≈ 4.4%.
//
// The observe path is lock-free (one Log2, two atomic adds, a CAS loop
// for the sum) and allocation-free, so pipeline workers can record every
// frame. Quantile reads walk the bucket array without stopping writers;
// snapshots of a quiesced histogram are deterministic.

const (
	// logSubBuckets is the number of buckets per power of two. 8 gives a
	// per-bucket width of 2^(1/8) ≈ 1.09, i.e. ≤ 4.4% error at the
	// geometric bucket midpoint.
	logSubBuckets = 8
	// logMinExp/logMaxExp bound the tracked range as powers of two. In the
	// repository's µs time base that spans ~1 ns (2^-10 µs) to ~3 days
	// (2^38 µs); values outside clamp into the first/last bucket.
	logMinExp = -10
	logMaxExp = 38
	// logBuckets is the bucket count implied by the range and resolution.
	logBuckets = (logMaxExp - logMinExp) * logSubBuckets
)

// LogHistogram is a streaming log-bucketed histogram. Create via
// Registry.LogHistogram or NewLogHistogram; a nil *LogHistogram is the
// disabled sink — every method is a no-op.
type LogHistogram struct {
	counts [logBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// zero counts non-positive observations, which have no log bucket;
	// they rank below every bucket in quantile walks.
	zero atomic.Int64
}

// NewLogHistogram returns an empty standalone histogram.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// logBucketIndex maps a positive value to its bucket.
func logBucketIndex(v float64) int {
	i := int(math.Floor(math.Log2(v)*logSubBuckets)) - logMinExp*logSubBuckets
	if i < 0 {
		return 0
	}
	if i >= logBuckets {
		return logBuckets - 1
	}
	return i
}

// logBucketUpper returns the exclusive upper bound of bucket i.
func logBucketUpper(i int) float64 {
	return math.Exp2(float64(i+1)/logSubBuckets + logMinExp)
}

// logBucketMid returns the geometric midpoint of bucket i — the value a
// quantile landing in the bucket reports.
func logBucketMid(i int) float64 {
	return math.Exp2((float64(i)+0.5)/logSubBuckets + logMinExp)
}

// Observe records one value. Non-positive values (and NaN) count toward
// Count and rank below every bucket but do not contribute to Sum's
// magnitude meaningfully. No-op on a nil receiver; never allocates.
func (h *LogHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v > 0 {
		h.counts[logBucketIndex(v)].Add(1)
		addFloat(&h.sum, v)
	} else {
		h.zero.Add(1)
	}
	h.count.Add(1)
}

// addFloat accumulates v into a float64 stored as atomic bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *LogHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of positive observations (0 on a nil receiver).
func (h *LogHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) as the geometric
// midpoint of the bucket holding the rank. Returns 0 when empty or on a
// nil receiver. The estimate's relative error is bounded by the bucket
// width (≤ 4.4%).
func (h *LogHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	cum := h.zero.Load()
	if cum >= rank {
		return 0
	}
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return logBucketMid(i)
		}
	}
	// Writers raced past the loaded total; report the top bucket.
	return logBucketMid(logBuckets - 1)
}

// QuantileSnapshot is a deterministic percentile summary of a
// LogHistogram at one instant.
type QuantileSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Quantiles returns the p50/p95/p99 summary (zero value when empty or on
// a nil receiver).
func (h *LogHistogram) Quantiles() QuantileSnapshot {
	if h == nil {
		return QuantileSnapshot{}
	}
	return QuantileSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// buckets exports the non-empty buckets as (upper bound, count) pairs in
// ascending bound order, prefixed by the zero bucket when populated.
func (h *LogHistogram) buckets() []Bucket {
	var out []Bucket
	if z := h.zero.Load(); z > 0 {
		out = append(out, Bucket{LE: 0, Count: z})
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			out = append(out, Bucket{LE: logBucketUpper(i), Count: n})
		}
	}
	return out
}
