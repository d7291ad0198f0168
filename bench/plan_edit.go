package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/platform"
	"ampsched/internal/strategy"
)

// editKind names the edits of a session; the traced run reports each kind's
// cost as herad.edit_ms_p50.<kind>.
type editKind int

const (
	editHead editKind = iota // reweigh near the start: refills almost every row
	editMid                  // reweigh near the middle
	editTail                 // reweigh near the end: refills a handful of rows
	editAppend
	editRemove // of the last task
	editDrift  // the Table III session's ±20 % reweigh, anywhere
)

var editNames = [...]string{"head", "mid", "tail", "append", "remove", "drift"}

// edit is one step of a session: the kind, the task index it touches and the
// task it writes there.
type edit struct {
	kind editKind
	at   int
	task core.Task
}

// session is one long-lived chain that keeps being edited and re-planned
// against an incumbent planner.
type session struct {
	res   core.Resources
	base  []core.Task // the weights drift is drawn around
	tasks []core.Task // current chain
	plan  *herad.Planner

	direct *herad.Planner // traced run: the same edits straight into herad.Planner

	edits   []edit             // this round's edits
	reqs    []strategy.Request // this round's requests, one per edit
	results []strategy.Result
	waitMs  []float64  // how long each request's ReplanBatch call took
	spans   []openSpan // traced rounds: the span of each call
}

// replan sends the session's requests one at a time, as an interactive
// editor would, and times every call from outside: Result.Elapsed of a warm
// result covers only reading the schedule out of the planner, not the refill
// that Rebase did before it.
func (s *session) replan(w *planEdit, tr *tracer, rd openSpan) {
	s.results, s.waitMs, s.spans = s.results[:0], s.waitMs[:0], s.spans[:0]
	for i := range s.reqs {
		sp := tr.open(rd, i, lStrategy, "replanbatch")
		t := time.Now()
		res, p, st := strategy.ReplanBatch(s.plan, s.reqs[i:i+1])
		s.waitMs = append(s.waitMs, time.Since(t).Seconds()*1e3)
		tr.close(sp)
		s.plan = p
		s.results, s.spans = append(s.results, res[0]), append(s.spans, sp)
		w.stats.WarmStarts += st.WarmStarts
		w.stats.Cold += st.Cold
	}
}

// planEdit is the warm-planning workload: two sessions driven through
// strategy.ReplanBatch, plus repeats of earlier requests served by a shared
// strategy.Cache.
type planEdit struct {
	cfg config
	tr  *tracer
	rng *rand.Rand

	mac, syn *session
	opts     strategy.Options

	cache       *strategy.Cache
	pool        []strategy.Request // requests planned once through the cache
	poolPeriods []float64
	repeats     []strategy.Request
	repeatIx    []int
	repResults  []strategy.Result

	rounds             int
	stats              strategy.ReplanStats
	hits0, misses0     int64
	lat                []float64
	inDigest, perFirst uint64

	newPlannerMs            []float64
	editMallocs, editCalls  uint64
	rowsRefilled, rowsTotal int
	repeatNs, replanUs      []float64
}

var heradSched = strategy.MustParse("herad")

func (w *planEdit) setup() error {
	sz := w.cfg.size
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.opts = strategy.Options{Workers: 1}
	w.cache = strategy.NewCache()

	// The long chain is the same in every run (see sizing.poolSeed): a full
	// refill of another chain of the same length costs up to a third more.
	// --seed draws every edit's weights, the order of the edits and the
	// repeats.
	macChain := platform.MacStudio().Chain()
	synChain := chaingen.Generate(chaingen.Default(sz.synN, 0.5), rand.New(rand.NewSource(sz.poolSeed)))
	w.mac = &session{res: core.Res(16, 4), base: macChain.Tasks()}
	w.syn = &session{res: core.Res(4, 4), base: synChain.Tasks()}
	h := fnv.New64a()
	for _, s := range []*session{w.mac, w.syn} {
		s.tasks = append([]core.Task(nil), s.base...)
		c := core.MustChain(s.tasks)
		fmt.Fprintf(h, "%016x|%v\n", c.Fingerprint(), s.res)
		t := time.Now()
		var err error
		w.tr.call(w.tr.scope(), -1, lHerad, "newplanner", func() { s.plan, err = strategy.NewHeradPlanner(c, s.res, w.opts) })
		if err != nil {
			return err
		}
		w.newPlannerMs = append(w.newPlannerMs, time.Since(t).Seconds()*1e3)
		if w.tr != nil {
			if s.direct, err = herad.NewPlanner(c, s.res, herad.Options{Workers: 1}); err != nil {
				return err
			}
		}
	}

	// The repeat pool: drifted variants of the Table III chain, planned once
	// through the cache here so that every later request for one is a hit.
	scheds := []strategy.Scheduler{heradSched, strategy.MustParse("2catac"), strategy.MustParse("fertac")}
	for i := 0; i < sz.poolSize; i++ {
		tasks := append([]core.Task(nil), w.mac.base...)
		for k := 0; k < 3; k++ {
			at := w.rng.Intn(len(tasks))
			tasks[at] = drift(w.mac.base[at], w.rng)
		}
		opts := w.opts
		opts.Cache = w.cache
		w.pool = append(w.pool, strategy.Request{Chain: core.MustChain(tasks), Resources: w.mac.res, Scheduler: scheds[i%len(scheds)], Options: opts})
		fmt.Fprintf(h, "%016x\n", w.pool[i].Chain.Fingerprint())
	}
	for _, r := range strategy.PlanBatch(w.pool, w.cfg.w) {
		if r.Err != nil {
			return fmt.Errorf("repeat pool: %w", r.Err)
		}
		w.poolPeriods = append(w.poolPeriods, r.Period)
	}
	w.inDigest = h.Sum64()

	for i := 0; i < sz.warmRounds; i++ {
		w.prepare(plain)
		w.round(plain)
		if failed := w.check(true, false); failed > 0 {
			return fmt.Errorf("warm-up round: %d results differ from a from-scratch plan", failed)
		}
	}
	w.hits0, w.misses0 = w.cache.Stats()
	w.stats = strategy.ReplanStats{}
	return nil
}

// drift returns base with both weights scaled by one factor in [0.8, 1.2].
func drift(base core.Task, rng *rand.Rand) core.Task {
	f := 0.8 + 0.4*rng.Float64()
	t := base
	t.Weight = make([]float64, len(base.Weight))
	for v, x := range base.Weight {
		t.Weight[v] = x * f
	}
	return t
}

// prepare draws the round's edits in a fixed proportion and builds one
// request per edit: the session's chain after the edit.
func (w *planEdit) prepare(kind roundKind) {
	sz := w.cfg.size
	opts := w.opts
	if kind == observed {
		opts.Metrics, opts.Flight = obs.NewRegistry(), flight.New(0)
	}

	// Like the long chain's below, the positions cycle: where an edit lands
	// decides how many rows it refills, and a round must refill the same
	// rows every time. The weights are drawn.
	w.mac.edits = w.mac.edits[:0]
	for i := 0; i < sz.macEdits; i++ {
		at := (7 * i) % len(w.mac.tasks) // 7 and n=23 are coprime: every task in turn, not in order
		w.mac.edits = append(w.mac.edits, edit{editDrift, at, drift(w.mac.base[at], w.rng)})
	}

	// The synthetic session interleaves its kinds: the expensive head and
	// mid edits are spread between the cheap ones.
	s := w.syn
	kinds := make([]editKind, 0, sz.headEdits+sz.midEdits+sz.tailEdits+2*sz.appends)
	for k, n := range []int{sz.headEdits, sz.midEdits, sz.tailEdits, sz.appends, sz.appends} {
		for i := 0; i < n; i++ {
			kinds = append(kinds, editKind(k))
		}
	}
	w.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	s.edits = s.edits[:0]
	n := len(s.tasks)
	span := 8
	if span > n/4 {
		span = n / 4
	}
	var nth [len(editNames)]int // how many edits of a kind this round has had
	for _, k := range kinds {
		// Positions cycle per kind instead of being drawn, so that every
		// round refills the same rows; the order and the weights are random.
		e := edit{kind: k}
		i := nth[k] % span
		nth[k]++
		switch k {
		case editHead:
			e.at = i
		case editMid:
			e.at = n/2 - span/2 + i
		case editTail:
			e.at = n - 1 - i
		case editAppend:
			e.at = n
			n++
		case editRemove:
			n--
			e.at = n
		}
		if k != editRemove {
			e.task = drift(s.base[w.rng.Intn(len(s.base))], w.rng)
		}
		s.edits = append(s.edits, e)
	}

	for _, s := range []*session{w.mac, w.syn} {
		s.reqs = s.reqs[:0]
		for _, e := range s.edits {
			s.tasks = applyEdit(s.tasks, e)
			s.reqs = append(s.reqs, strategy.Request{Chain: core.MustChain(s.tasks), Resources: s.res, Scheduler: heradSched, Options: opts})
		}
	}

	w.repeats, w.repeatIx = w.repeats[:0], w.repeatIx[:0]
	for i := 0; i < sz.repeats; i++ {
		ix := w.rng.Intn(len(w.pool))
		r := w.pool[ix]
		r.Options.Metrics, r.Options.Flight = opts.Metrics, opts.Flight
		w.repeats, w.repeatIx = append(w.repeats, r), append(w.repeatIx, ix)
	}
}

func applyEdit(tasks []core.Task, e edit) []core.Task {
	switch e.kind {
	case editAppend:
		return append(tasks, e.task)
	case editRemove:
		return tasks[:len(tasks)-1]
	}
	tasks[e.at] = e.task
	return tasks
}

func (w *planEdit) round(kind roundKind) (int, time.Duration) {
	ops := len(w.mac.reqs) + len(w.syn.reqs) + len(w.repeats)
	if kind == traced {
		return ops, w.tracedRound()
	}
	for _, s := range []*session{w.mac, w.syn} {
		s.replan(w, nil, openSpan{})
	}
	w.repResults = strategy.PlanBatch(w.repeats, w.cfg.w)
	return ops, 0
}

// tracedRound runs the round under spans and then replays each session's
// edits straight into a second herad.Planner, each as the child of the
// ReplanBatch call it corresponds to.
func (w *planEdit) tracedRound() time.Duration {
	tr := w.tr
	rd := tr.open(tr.scope(), -1, lBench, "round")
	t := time.Now()
	for _, s := range []*session{w.mac, w.syn} {
		s.replan(w, tr, rd)
		for _, ms := range s.waitMs {
			w.replanUs = append(w.replanUs, ms*1e3)
		}
	}
	t1 := time.Now()
	tr.call(rd, -1, lStrategy, "planbatch.cached", func() { w.repResults = strategy.PlanBatch(w.repeats, w.cfg.w) })
	w.repeatNs = append(w.repeatNs, float64(time.Since(t1))/float64(len(w.repeats)))
	part := time.Since(t)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, s := range []*session{w.mac, w.syn} {
		for j, e := range s.edits {
			tr.call(s.spans[j], j, lHerad, "edit."+editNames[e.kind], func() {
				switch e.kind {
				case editAppend:
					s.direct.Append(e.task)
				case editRemove:
					s.direct.Remove(e.at)
				default:
					s.direct.Reweigh(e.at, e.task)
				}
				s.direct.Solution() // ReplanBatch reads the schedule out after every edit
			})
			w.rowsRefilled += s.direct.RowsRefilled()
			w.rowsTotal += s.direct.Chain().Len()
			w.editCalls++
		}
	}
	runtime.ReadMemStats(&ms)
	w.editMallocs += ms.Mallocs - before
	tr.close(rd)
	return part
}

func (w *planEdit) verify(kind roundKind) int {
	w.rounds++
	// From-scratch checks of the long chain cost more than the round, so
	// they run on every eighth round (and on the warm-up, see setup).
	return w.check(w.rounds%8 == 1, kind != observed)
}

// check applies the per-round oracles: every request planned and valid,
// every repeat a cache hit with the period it had when first planned, and,
// when deep, every twentieth warm result equal to herad.Schedule from
// scratch on the same chain. pool adds the results' latencies to the pooled
// per-op samples.
func (w *planEdit) check(deep, pool bool) int {
	failed := 0
	h := fnv.New64a()
	n := 0
	for _, s := range []*session{w.mac, w.syn} {
		for i, res := range s.results {
			req := s.reqs[i]
			ok := res.Err == nil && res.Solution.Validate(req.Chain, req.Resources) == nil
			if ok && deep && n%20 == 0 {
				ok = reflect.DeepEqual(res.Solution, herad.Schedule(req.Chain, req.Resources))
			}
			if !ok {
				failed++
			}
			n++
			if pool {
				w.lat = append(w.lat, s.waitMs[i])
			}
			fmt.Fprintf(h, "%016x\n", math.Float64bits(res.Period))
		}
	}
	for i, res := range w.repResults {
		if res.Err != nil || res.Period != w.poolPeriods[w.repeatIx[i]] {
			failed++
		}
		if pool {
			w.lat = append(w.lat, res.Elapsed.Seconds()*1e3)
		}
	}
	if w.perFirst == 0 {
		w.perFirst = h.Sum64()
	}
	return failed
}

func (w *planEdit) latenciesMs() []float64 { return w.lat }

// finish checks that nothing fell off the warm path or missed the cache.
func (w *planEdit) finish() int {
	failed := w.stats.Cold
	hits, misses := w.cache.Stats()
	if misses != w.misses0 || hits == w.hits0 {
		failed++
	}
	return failed
}

func (w *planEdit) digests() (uint64, uint64) { return w.inDigest, w.perFirst }

func (w *planEdit) layers(spans []span, m map[string]float64) {
	tr := w.tr
	m["herad.newplanner_ms_p50"] = median(w.newPlannerMs)
	for _, k := range []editKind{editHead, editMid, editTail, editAppend, editRemove} {
		m["herad.edit_ms_p50."+editNames[k]] = median(durations(spans, tr, lHerad, "edit."+editNames[k], 1e6))
	}
	if w.rowsTotal > 0 {
		m["herad.rows_refilled_share"] = float64(w.rowsRefilled) / float64(w.rowsTotal)
		m["herad.allocs_per_edit"] = float64(w.editMallocs) / float64(w.editCalls)
	}
	m["strategy.cache_hit_ns_p50"] = median(w.repeatNs)
	hits, misses := w.cache.Stats()
	hits, misses = hits-w.hits0, misses-w.misses0
	if hits+misses > 0 {
		m["strategy.cache_hit_share"] = float64(hits) / float64(hits+misses)
	}
	m["strategy.replanbatch_us_p50"] = median(w.replanUs)
	m["op_ms_p99.plan_edit"] = percentile(sorted(w.lat), 99)
	if n := w.stats.WarmStarts + w.stats.Cold; n > 0 {
		m["strategy.warm_share"] = float64(w.stats.WarmStarts) / float64(n)
	}

	// Chain.Fingerprint is a field read: the hash is computed once, when
	// the chain is built, so building the chain is what is timed.
	m["core.fingerprint_ns_p50"] = probeNs(21, 1+200/w.cfg.size.probeScale, func() { core.MustChain(w.syn.tasks) })
}
