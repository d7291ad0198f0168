package strategy

import (
	"bytes"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// cacheBatch builds a batch that revisits the same few (chain, resources,
// strategy) points repeatedly — the experiment-sweep shape the cache is
// for. With 3 repeats of a 2-chain × all-strategies cross, two thirds of
// the batch are in-batch duplicates.
func cacheBatch(t *testing.T, opts Options) []Request {
	t.Helper()
	chains := []*core.Chain{testChain(t), traceChain(t)}
	r := core.Res(2, 3)
	var reqs []Request
	for rep := 0; rep < 3; rep++ {
		for _, c := range chains {
			for _, s := range All() {
				reqs = append(reqs, Request{Chain: c, Resources: r, Scheduler: s, Options: opts, Label: s.Name()})
			}
		}
	}
	return reqs
}

func assertSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Solution.String() != want[i].Solution.String() || got[i].Period != want[i].Period {
			t.Errorf("%s result %d (%s): %v p=%v, want %v p=%v", label, i, got[i].Request.Label,
				got[i].Solution, got[i].Period, want[i].Solution, want[i].Period)
		}
		gotErr, wantErr := "", ""
		if got[i].Err != nil {
			gotErr = got[i].Err.Error()
		}
		if want[i].Err != nil {
			wantErr = want[i].Err.Error()
		}
		if gotErr != wantErr {
			t.Errorf("%s result %d: err %q, want %q", label, i, gotErr, wantErr)
		}
	}
}

// TestCacheRepeatedBatch pins the headline contract: on a batch full of
// repeated requests the cache serves the duplicates (nonzero hits, one
// miss per distinct key) and the Results are byte-identical to an uncached
// run — serial and pooled alike.
func TestCacheRepeatedBatch(t *testing.T) {
	plain := PlanBatch(cacheBatch(t, Options{}), 1)
	distinct := 2 * len(All()) // 2 chains × strategies, repeated 3×
	for _, workers := range []int{1, 4} {
		cache := NewCache()
		reqs := cacheBatch(t, Options{Cache: cache})
		res := PlanBatch(reqs, workers)
		assertSameResults(t, "cached", res, plain)
		hits, misses := cache.Stats()
		if misses != int64(distinct) {
			t.Errorf("workers=%d: %d misses, want %d", workers, misses, distinct)
		}
		if want := int64(len(reqs) - distinct); hits != want {
			t.Errorf("workers=%d: %d hits, want %d", workers, hits, want)
		}
		if cache.Len() != distinct {
			t.Errorf("workers=%d: cache holds %d entries, want %d", workers, cache.Len(), distinct)
		}
	}
}

// TestCacheAcrossBatches runs the same batch twice against one shared
// cache: the second batch must be all hits and still return identical
// Results — the repeated-campaign reuse path.
func TestCacheAcrossBatches(t *testing.T) {
	cache := NewCache()
	reqs := cacheBatch(t, Options{Cache: cache})
	first := PlanBatch(reqs, 4)
	h0, _ := cache.Stats()
	second := PlanBatch(cacheBatch(t, Options{Cache: cache}), 4)
	assertSameResults(t, "second batch", second, first)
	hits, misses := cache.Stats()
	if hits-h0 != int64(len(reqs)) {
		t.Errorf("second batch: %d hits, want %d (all requests)", hits-h0, len(reqs))
	}
	if misses != int64(cache.Len()) {
		t.Errorf("misses %d != distinct entries %d after identical re-run", misses, cache.Len())
	}
}

// TestCacheKeySeparatesVariants guards against false sharing: requests
// that differ in chain content, resources, strategy, or schedule-changing
// options must occupy distinct cache entries.
func TestCacheKeySeparatesVariants(t *testing.T) {
	c1, c2 := testChain(t), traceChain(t)
	h := MustParse("herad")
	cache := NewCache()
	base := Options{Cache: cache}
	raw := base
	raw.Raw = true
	reqs := []Request{
		{Chain: c1, Resources: core.Res(2, 2), Scheduler: h, Options: base},
		{Chain: c2, Resources: core.Res(2, 2), Scheduler: h, Options: base},
		{Chain: c1, Resources: core.Res(3, 2), Scheduler: h, Options: base},
		{Chain: c1, Resources: core.Res(2, 2), Scheduler: MustParse("fertac"), Options: base},
		{Chain: c1, Resources: core.Res(2, 2), Scheduler: h, Options: raw},
	}
	res := PlanBatch(reqs, 1)
	for i, re := range res {
		if re.Err != nil {
			t.Fatalf("request %d: %v", i, re.Err)
		}
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != int64(len(reqs)) {
		t.Errorf("hits=%d misses=%d, want 0 hits and %d misses", hits, misses, len(reqs))
	}
	for i, re := range res {
		if want := reqs[i].Scheduler.Schedule(reqs[i].Chain, reqs[i].Resources, Options{Raw: reqs[i].Options.Raw}); re.Solution.String() != want.String() {
			t.Errorf("request %d: cached path %v, direct %v", i, re.Solution, want)
		}
	}
}

// TestCacheIgnoresWorkers pins that Options.Workers, accepted and ignored
// for as long as the field exists, stays out of the cache key: requests
// differing only in it share one entry.
func TestCacheIgnoresWorkers(t *testing.T) {
	c := testChain(t)
	r := core.Res(2, 2)
	cache := NewCache()
	var reqs []Request
	for _, w := range []int{1, 2, 8} {
		o := Options{Cache: cache, Workers: w}
		reqs = append(reqs, Request{Chain: c, Resources: r, Scheduler: MustParse("herad"), Options: o})
	}
	res := PlanBatch(reqs, 1)
	for i := 1; i < len(res); i++ {
		if res[i].Solution.String() != res[0].Solution.String() {
			t.Errorf("workers=%d solution differs: %v vs %v",
				reqs[i].Options.Workers, res[i].Solution, res[0].Solution)
		}
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2 hits / 1 miss across worker counts", hits, misses)
	}
}

// TestCacheFailures verifies that "no schedule exists" outcomes are cached
// too and reconstructed with the identical error, so a cached failing
// sweep point behaves exactly like a fresh one.
func TestCacheFailures(t *testing.T) {
	c := testChain(t) // has non-replicable tasks; zero resources cannot host them
	cache := NewCache()
	o := Options{Cache: cache}
	req := Request{Chain: c, Resources: core.Res(0, 0), Scheduler: MustParse("fertac"), Options: o}
	res := PlanBatch([]Request{req, req, req}, 1)
	if res[0].Err == nil {
		t.Fatal("expected a scheduling failure on zero resources")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Err == nil || res[i].Err.Error() != res[0].Err.Error() {
			t.Errorf("request %d: err %v, want %v", i, res[i].Err, res[0].Err)
		}
		if !res[i].Solution.IsEmpty() {
			t.Errorf("request %d: non-empty solution %v from cached failure", i, res[i].Solution)
		}
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1 — failures must be cached", hits, misses)
	}
}

// TestCacheMetricsAndJournal checks the observability contract: the
// batch-level registry carries planbatch.cache.hits/misses matching
// Cache.Stats, planbatch.requests still counts every request, and the
// journal records one cache_hit event per served request (with a
// leader_index for in-batch followers) while staying deterministic across
// pool widths.
func TestCacheMetricsAndJournal(t *testing.T) {
	run := func(workers int) ([]byte, *obs.Registry, *Cache) {
		reg := obs.NewRegistry()
		j := trace.New()
		cache := NewCache()
		o := Options{Cache: cache, Metrics: reg, Trace: j.Root().Begin("run")}
		reqs := cacheBatch(t, o)
		res := PlanBatch(reqs, workers)
		for i, re := range res {
			if re.Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, re.Err)
			}
		}
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes(), reg, cache
	}
	serialJ, reg, cache := run(1)
	hits, misses := cache.Stats()
	series := map[string]int64{}
	for _, s := range reg.Snapshot() {
		series[s.Name] = s.Count
	}
	if got := series["planbatch.cache.hits"]; got != hits {
		t.Errorf("planbatch.cache.hits = %d, want %d", got, hits)
	}
	if got := series["planbatch.cache.misses"]; got != misses {
		t.Errorf("planbatch.cache.misses = %d, want %d", got, misses)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate batch: hits=%d misses=%d", hits, misses)
	}
	want := int64(len(cacheBatch(t, Options{})))
	if got := series["planbatch.requests"]; got != want {
		t.Errorf("planbatch.requests = %d, want %d (cache hits still count)", got, want)
	}
	if n := int64(bytes.Count(serialJ, []byte(`"cache_hit"`))); n != hits {
		t.Errorf("journal has %d cache_hit events, want %d", n, hits)
	}
	if !bytes.Contains(serialJ, []byte(`"leader_index"`)) {
		t.Error("journal has no leader_index attribute despite in-batch followers")
	}
	pooledJ, _, _ := run(4)
	if !bytes.Equal(serialJ, pooledJ) {
		t.Errorf("cached journal differs between workers=1 and workers=4:\nserial:\n%s\npooled:\n%s",
			serialJ, pooledJ)
	}
}
