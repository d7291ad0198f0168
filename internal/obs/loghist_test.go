package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestLogHistogramQuantileErrorBound(t *testing.T) {
	// The bucket grid guarantees ≤ 2^(1/logSubBuckets)−1 relative error at
	// the reported geometric midpoint; allow the full bucket width.
	maxErr := math.Exp2(1.0/logSubBuckets) - 1
	h := NewLogHistogram()
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.Float64()*12 - 2) // ~0.14 .. 22000, log-uniform
		vals = append(vals, v)
		h.Observe(v)
	}
	if h.Count() != 5000 {
		t.Fatalf("count = %d", h.Count())
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if got := h.Sum(); math.Abs(got-sum)/sum > 1e-9 {
		t.Errorf("sum = %v, want %v", got, sum)
	}
	sorted := append([]float64(nil), vals...)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := quantileExact(sorted, q)
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > maxErr {
			t.Errorf("q=%v: got %v, exact %v, rel err %v > %v", q, got, exact, rel, maxErr)
		}
	}
}

func quantileExact(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	for i := 1; i < len(s); i++ { // insertion sort keeps the test dependency-free
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func TestLogHistogramMergeEquivalence(t *testing.T) {
	a, b, both := NewLogHistogram(), NewLogHistogram(), NewLogHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := math.Exp(rng.Float64() * 10)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	a.Observe(0) // zero bucket merges too
	both.Observe(0)
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merged count %d != direct %d", a.Count(), both.Count())
	}
	if math.Abs(a.Sum()-both.Sum()) > 1e-6*both.Sum() {
		t.Errorf("merged sum %v != direct %v", a.Sum(), both.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("q=%v: merged %v != direct %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestLogHistogramZeroAndClamp(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(1e-30) // clamps to the first bucket
	h.Observe(1e30)  // clamps to the last bucket
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	// Three non-positive observations → p50 (rank 3 of 5) is the zero bucket.
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %v, want 0", got)
	}
	if got := h.Quantile(1); got < 1e6 {
		t.Errorf("p100 = %v, want clamped top bucket", got)
	}
	bs := h.buckets()
	if len(bs) != 3 || bs[0].LE != 0 || bs[0].Count != 3 {
		t.Errorf("buckets = %+v", bs)
	}
}

func TestLogHistogramEmptyAndNil(t *testing.T) {
	var h *LogHistogram
	h.Observe(3)
	h.Merge(NewLogHistogram())
	NewLogHistogram().Merge(h)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram not inert")
	}
	if q := h.Quantiles(); q != (QuantileSnapshot{}) {
		t.Errorf("nil quantiles = %+v", q)
	}
	if q := NewLogHistogram().Quantiles(); q != (QuantileSnapshot{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
}

func TestLogHistogramRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.LogHistogram("lat")
	if h != r.LogHistogram("lat") {
		t.Fatal("same name returned different histograms")
	}
	for _, v := range []float64{100, 200, 400} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindLogHistogram {
		t.Fatalf("snapshot = %+v", snap)
	}
	s := snap[0]
	if s.Count != 3 || s.Sum != 700 || s.Quantiles == nil || s.Quantiles.P50 == 0 {
		t.Errorf("sample = %+v quantiles = %+v", s, s.Quantiles)
	}
	if len(s.Buckets) != 3 {
		t.Errorf("buckets = %+v", s.Buckets)
	}
}

func TestLogHistogramDisabledAndEnabledAllocs(t *testing.T) {
	var nilH *LogHistogram
	if n := testing.AllocsPerRun(100, func() { nilH.Observe(12.5) }); n != 0 {
		t.Errorf("nil Observe allocates %v/op", n)
	}
	h := NewLogHistogram()
	if n := testing.AllocsPerRun(100, func() { h.Observe(12.5) }); n != 0 {
		t.Errorf("enabled Observe allocates %v/op", n)
	}
}

func TestLogHistogramConcurrentObserveAndMerge(t *testing.T) {
	shards := make([]*LogHistogram, 4)
	for i := range shards {
		shards[i] = NewLogHistogram()
	}
	total := NewLogHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 2000; i++ {
				shards[g].Observe(float64(i))
			}
		}(g)
		wg.Add(1)
		go func() { // merge concurrently with observation: must stay race-free
			defer wg.Done()
			total.Merge(shards[0])
			_ = total.Quantile(0.95)
		}()
	}
	wg.Wait()
	final := NewLogHistogram()
	for _, s := range shards {
		final.Merge(s)
	}
	if final.Count() != 8000 {
		t.Fatalf("merged count = %d, want 8000", final.Count())
	}
}

// Merge adds o's observations into h. Both sides keep working during the
// merge (atomic adds); merging a nil histogram, or into one, is a no-op.
// Observing x into h and y into o then merging yields the same counts as
// observing both into one histogram — the mergeability contract behind
// per-worker sharding.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	if n := o.zero.Load(); n != 0 {
		h.zero.Add(n)
	}
	addFloat(&h.sum, o.Sum())
	h.count.Add(o.count.Load())
}
