package strategy

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/trace"
)

// cacheBatch builds one request per (chain, strategy) point — the shape of
// an experiment campaign that a later campaign revisits.
func cacheBatch(t *testing.T, opts Options) []Request {
	t.Helper()
	var reqs []Request
	for _, c := range []*core.Chain{testChain(t), traceChain(t)} {
		for _, s := range All() {
			reqs = append(reqs, Request{Chain: c, Resources: core.Res(2, 3), Scheduler: s, Options: opts, Label: s.Name()})
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

// TestCacheAcrossBatches pins the reuse contract, serial and pooled: the
// first batch against a fresh cache is all misses, and the same batch again
// is all hits, both with Results identical to an uncached run.
func TestCacheAcrossBatches(t *testing.T) {
	plain := PlanBatch(cacheBatch(t, Options{}), 1)
	for _, workers := range []int{1, 4} {
		cache := NewCache()
		reqs := cacheBatch(t, Options{Cache: cache})
		assertSameResults(t, "first batch", PlanBatch(reqs, workers), plain)
		if hits, misses := cache.Stats(); hits != 0 || misses != int64(len(reqs)) || len(cache.m) != len(reqs) {
			t.Errorf("workers=%d first batch: hits=%d misses=%d entries=%d, want 0/%d/%d",
				workers, hits, misses, len(cache.m), len(reqs), len(reqs))
		}
		assertSameResults(t, "second batch", PlanBatch(reqs, workers), plain)
		if hits, _ := cache.Stats(); hits != int64(len(reqs)) {
			t.Errorf("workers=%d second batch: %d hits, want %d (all requests)", workers, hits, len(reqs))
		}
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
	fused := base
	fused.Colocate = true
	reqs := []Request{
		{Chain: c1, Resources: core.Res(2, 2), Scheduler: h, Options: base},
		{Chain: c2, Resources: core.Res(2, 2), Scheduler: h, Options: base},
		{Chain: c1, Resources: core.Res(3, 2), Scheduler: h, Options: base},
		{Chain: c1, Resources: core.Res(2, 2), Scheduler: MustParse("fertac"), Options: base},
		{Chain: c1, Resources: core.Res(2, 2), Scheduler: h, Options: fused},
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
		if want := reqs[i].Scheduler.Schedule(reqs[i].Chain, reqs[i].Resources, Options{Colocate: reqs[i].Options.Colocate}); re.Solution.String() != want.String() {
			t.Errorf("request %d: cached path %v, direct %v", i, re.Solution, want)
		}
	}
}

// TestCacheIgnoresWorkers pins that Options.Workers, accepted and ignored
// for as long as the field exists, stays out of the cache key: batches
// differing only in it share one entry.
func TestCacheIgnoresWorkers(t *testing.T) {
	c := testChain(t)
	cache := NewCache()
	var first core.Solution
	for i, w := range []int{1, 2, 8} {
		o := Options{Cache: cache, Workers: w}
		res := PlanBatch([]Request{{Chain: c, Resources: core.Res(2, 2), Scheduler: MustParse("herad"), Options: o}}, 1)
		if i == 0 {
			first = res[0].Solution
		} else if res[0].Solution.String() != first.String() {
			t.Errorf("workers=%d solution differs: %v vs %v", w, res[0].Solution, first)
		}
	}
	if hits, misses := cache.Stats(); hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2 hits / 1 miss across worker counts", hits, misses)
	}
}

// TestEpsilonIgnored pins that Options.Epsilon, accepted and ignored for
// as long as bench/ sets it, neither changes a schedule nor splits the
// cache. The chain is plan_cold's first n=512 draw from the benchmark's
// frozen pool seed, on which an ε = 0.05 beam fill used to give periods a
// few percent above the optimum.
func TestEpsilonIgnored(t *testing.T) {
	c := chaingen.Generate(chaingen.Default(512, 0.5), rand.New(rand.NewSource(20250)))
	r := core.Res(4, 4)
	want := herad.Schedule(c, r)
	if got := herad.ScheduleOpts(c, r, herad.Options{Epsilon: 0.05}); !reflect.DeepEqual(got, want) {
		t.Fatalf("herad Epsilon 0.05: period %v, exact %v", got.Period(c), want.Period(c))
	}
	cache := NewCache()
	req := Request{Chain: c, Resources: r, Scheduler: MustParse("herad"), Options: Options{Cache: cache}}
	exact := PlanBatch([]Request{req}, 1)
	req.Options.Epsilon = 0.05
	assertSameResults(t, "epsilon", PlanBatch([]Request{req}, 1), exact)
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want the Epsilon request served from the exact entry", hits, misses)
	}
}

// TestCacheFailures verifies that "no schedule exists" outcomes are cached
// too and reconstructed with the identical error, so a cached failing
// sweep point behaves exactly like a fresh one. Its first batch holds the
// request twice: a duplicate inside one batch is solved, not served.
func TestCacheFailures(t *testing.T) {
	c := testChain(t) // has non-replicable tasks; zero resources cannot host them
	cache := NewCache()
	req := Request{Chain: c, Resources: core.Res(0, 0), Scheduler: MustParse("fertac"), Options: Options{Cache: cache}}
	res := append(PlanBatch([]Request{req, req}, 1), PlanBatch([]Request{req}, 1)...)
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
	if hits, misses := cache.Stats(); hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2 — failures must be cached", hits, misses)
	}
}

// TestCacheMetricsAndJournal checks the observability contract over two
// batches sharing a cache: the batch-level registry carries
// planbatch.cache.hits/misses matching Cache.Stats, planbatch.requests
// still counts every request, and the journal records one cache_hit event
// per served request while staying deterministic across pool widths.
func TestCacheMetricsAndJournal(t *testing.T) {
	run := func(workers int) ([]byte, *obs.Registry, *Cache) {
		reg := obs.NewRegistry()
		j := trace.New()
		cache := NewCache()
		o := Options{Cache: cache, Metrics: reg, Trace: j.Root().Begin("run")}
		for batch := 0; batch < 2; batch++ {
			for i, re := range PlanBatch(cacheBatch(t, o), workers) {
				if re.Err != nil {
					t.Fatalf("workers=%d batch %d request %d: %v", workers, batch, i, re.Err)
				}
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
		t.Fatalf("degenerate batches: hits=%d misses=%d", hits, misses)
	}
	if got, want := series["planbatch.requests"], hits+misses; got != want {
		t.Errorf("planbatch.requests = %d, want %d (cache hits still count)", got, want)
	}
	if n := int64(bytes.Count(serialJ, []byte(`"cache_hit"`))); n != hits {
		t.Errorf("journal has %d cache_hit events, want %d", n, hits)
	}
	pooledJ, _, _ := run(4)
	if !bytes.Equal(serialJ, pooledJ) {
		t.Errorf("cached journal differs between workers=1 and workers=4:\nserial:\n%s\npooled:\n%s",
			serialJ, pooledJ)
	}
}
