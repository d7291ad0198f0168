package strategy

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/trace"
)

// Request is one unit of batch planning work: schedule Chain on Resources
// with Scheduler under Options. Label is an optional caller tag carried
// through to the Result untouched.
type Request struct {
	Chain     *core.Chain
	Resources core.Resources
	Scheduler Scheduler
	Options   Options
	Label     string
}

// Result is the outcome of one Request. Err is set when the request was
// malformed (nil chain or scheduler) or the strategy found no schedule; in
// both cases Solution is empty and Period is +Inf.
type Result struct {
	Request  Request
	Solution core.Solution
	Period   float64
	Elapsed  time.Duration
	Err      error
}

// PlanBatch schedules every request concurrently on a bounded worker pool
// and returns one Result per request, in request order. Each strategy is
// deterministic, so a batch result is byte-for-byte the result of running
// the requests serially — only the wall-clock changes.
//
// Requests whose Options carry a metrics registry report their strategy
// series into it as usual, and PlanBatch aggregates batch-level series
// under "planbatch." (batches, requests, errors, workers, per-request
// latency, cache hits/misses). Counter updates are atomic and
// order-independent, so the aggregation never perturbs the deterministic
// result ordering — nor, for deterministic workloads, the exported
// counter values.
//
// A request resolves in one of two modes. Its key already in its Options'
// Cache — stored by a previous batch — makes it a hit, served in a serial
// pre-pass in request order, so the hit/miss counters are deterministic.
// Every other request is solved on the pool, and stored when it has a
// cache. Duplicates inside one batch are therefore each solved.
//
// workers bounds the pool; workers ≤ 0 uses GOMAXPROCS. The pool never
// exceeds the number of requests it has to solve, and runs no goroutine
// when every request hits.
func PlanBatch(reqs []Request, workers int) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	// Batch-level summary, recorded once per batch on the first request
	// that carries a registry (requests usually share one).
	for i := range reqs {
		if m := reqs[i].Options.Metrics.Sub("planbatch"); m != nil {
			m.Counter("batches").Inc()
			m.Gauge("workers").Set(float64(workers))
			break
		}
	}
	// Journal spans are opened and hits served here, serially and in
	// request order, before any worker runs. Each worker then appends only
	// under its own request span, so the exported journal is byte-for-byte
	// identical no matter how the pool interleaves the requests.
	spans := make([]*trace.Span, len(reqs))
	solve := make([]int, 0, len(reqs))
	for i := range reqs {
		spans[i] = requestSpan(reqs[i], i)
		if res, hit := lookup(reqs[i], spans[i]); hit {
			out[i] = res
			continue
		}
		solve = append(solve, i)
	}
	workers = min(workers, len(solve))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = plan(reqs[i], spans[i])
				if k, ok := requestKey(reqs[i]); ok {
					reqs[i].Options.Cache.put(k, out[i].Solution)
				}
			}
		}()
	}
	for _, i := range solve {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// requestSpan opens request i's journal span under req.Options.Trace — the
// one opener PlanBatch and ReplanBatch share — or returns nil when
// journaling is off.
func requestSpan(req Request, i int) *trace.Span {
	sp := req.Options.Trace.Begin("request").Int("index", i)
	if sp == nil {
		return nil
	}
	if req.Label != "" {
		sp.Str("label", req.Label)
	}
	if req.Scheduler != nil {
		sp.Str("scheduler", req.Scheduler.Name())
	}
	return sp
}

// lookup is PlanBatch's hit mode: when req has a cache holding its key, it
// returns the stored solution as req's Result without invoking the
// strategy, journaling a "cache_hit" event in place of the solver's
// decision trail. It counts the hit or miss in the cache's Stats and the
// planbatch.cache.* series; requests without a key count in neither.
func lookup(req Request, sp *trace.Span) (Result, bool) {
	k, ok := requestKey(req)
	if !ok {
		return Result{}, false
	}
	var hits, misses *obs.Counter
	if m := req.Options.Metrics.Sub("planbatch"); m != nil {
		hits = m.Counter("cache.hits") // registered even while zero
		misses = m.Counter("cache.misses")
	}
	start := time.Now()
	s, hit := req.Options.Cache.get(k)
	if !hit {
		req.Options.Cache.misses.Add(1)
		misses.Inc()
		return Result{}, false
	}
	res := Result{Request: req, Solution: s, Elapsed: time.Since(start)}
	req.Options.Cache.hits.Add(1)
	hits.Inc()
	if sp != nil {
		sp.Event("cache_hit")
	}
	return settle(res, sp), true
}

// plan is PlanBatch's solve mode, and ReplanBatch's cold path: it runs the
// strategy on its own Request copy, so the caller's slice is never mutated.
// sp, when non-nil, is the request's pre-opened journal span; the strategy
// journals under it via the Options value copy. Elapsed times the strategy
// call alone.
func plan(req Request, sp *trace.Span) Result {
	req.Options.Trace = sp
	res := Result{Request: req}
	switch {
	case req.Scheduler == nil:
		res.Err = errors.New("strategy: request has no scheduler")
	case req.Chain == nil:
		res.Err = fmt.Errorf("strategy: %s request has no chain", req.Scheduler.Name())
	default:
		// A type-table mismatch (k≠2 resources on a two-type strategy, or
		// chain/platform disagreement) fails loudly instead of letting the
		// strategy silently misplan.
		if res.Err = CheckTypes(req.Scheduler, req.Chain, req.Resources); res.Err == nil {
			start := time.Now()
			res.Solution = req.Scheduler.Schedule(req.Chain, req.Resources, req.Options)
			res.Elapsed = time.Since(start)
		}
	}
	return settle(res, sp)
}

// conclude is the result tail every resolved request shares — solved, hit
// or warm-started: it derives Period (+Inf for an empty solution) and the
// no-schedule error, and journals one deterministic "result" event — the
// period on success, the error string on failure, never the wall-clock
// Elapsed.
func conclude(res Result, sp *trace.Span) Result {
	res.Period = res.Solution.Period(res.Request.Chain)
	if res.Err == nil && res.Solution.IsEmpty() {
		res.Err = fmt.Errorf("strategy: %s found no schedule for R=%v",
			res.Request.Scheduler.Name(), res.Request.Resources)
	}
	if sp != nil {
		if res.Err != nil {
			sp.Event("result").Str("error", res.Err.Error())
		} else {
			sp.Event("result").F64("period", res.Period).Int("stages", len(res.Solution.Stages))
		}
	}
	return res
}

// settle completes a PlanBatch request, solved or hit: conclude, then the
// planbatch request series and one CodePlan flight event (A the period,
// +Inf on failure; B the stage count; Aux the strategy name).
func settle(res Result, sp *trace.Span) Result {
	res = conclude(res, sp)
	req := res.Request
	if m := req.Options.Metrics.Sub("planbatch"); m != nil {
		m.Counter("requests").Inc()
		errs := m.Counter("errors") // registered even while zero
		if res.Err != nil {
			errs.Inc()
		}
		m.LogHistogram("request_us").Observe(float64(res.Elapsed.Nanoseconds()) / 1e3)
	}
	if fr := req.Options.Flight; fr != nil {
		var aux uint32
		if req.Scheduler != nil {
			aux = fr.Intern(req.Scheduler.Name())
		}
		fr.Record(flight.Event{Code: flight.CodePlan, Stage: -1, Aux: aux,
			A: res.Period, B: float64(len(res.Solution.Stages))})
	}
	return res
}
