package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ampsched/internal/brute"
	"ampsched/internal/chaingen"
	"ampsched/internal/core"
	"ampsched/internal/desim"
	"ampsched/internal/fertac"
	"ampsched/internal/herad"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/otac"
	"ampsched/internal/platform"
	"ampsched/internal/sched"
	"ampsched/internal/strategy"
	"ampsched/internal/trace"
	"ampsched/internal/twocatac"
)

// planReq is one scheduling request of the plan_cold mix, with what the
// oracles and the traced replay need to know about it.
type planReq struct {
	req   strategy.Request
	group byte   // 'A'..'E'
	tag   string // size tag of the per-layer rows ("n20", "k3", …)
	row   string // Table II row id, group E only
	class int    // requests on one (chain, resources) pair; exact HeRAD must win it
	exact bool   // exact HeRAD: the class's optimum
	layer layer
	// direct is the same request as a call into the layer's own package,
	// bypassing internal/strategy.
	direct func() core.Solution
}

// planCold is the cold-planning workload: one round is one
// strategy.PlanBatch over the fixed mix, plus the desim prediction of the
// Table II rows.
type planCold struct {
	cfg config
	tr  *tracer

	reqs    []planReq
	batch   []strategy.Request
	obs     []strategy.Request // batch with every sink attached, rebuilt per observed round
	eRows   []int              // indexes of the group E requests
	results []strategy.Result
	sims    []desim.Result
	simErr  []error

	tableII  map[string]float64
	brute    []*core.Chain
	genUs    []float64
	lat      []float64
	inDigest uint64
	perFirst uint64 // period digest of the first verified round

	heradMallocs, heradCalls uint64
}

var (
	resA    = []core.Resources{core.Res(16, 4), core.Res(10, 10), core.Res(4, 16)}
	srA     = []float64{0.2, 0.5, 0.8}
	sizesB  = []int{40, 80, 160}
	bruteR  = core.Res(2, 2)
	simCap  = 2
	epsLong = 0.05
)

// readTableII loads the hand-written Table II periods.
func readTableII() (map[string]float64, error) {
	for _, dir := range []string{"bench/testdata", "testdata"} {
		b, err := os.ReadFile(filepath.Join(dir, "tableII_periods.json"))
		if err != nil {
			continue
		}
		var f struct {
			Rows map[string]float64 `json:"rows"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("tableII_periods.json: %w", err)
		}
		return f.Rows, nil
	}
	return nil, fmt.Errorf("tableII_periods.json not found under bench/testdata or testdata")
}

// tableIIRow is one row of Table II: S1..S20 number platform.All() ×
// Configs() × strategy.All() in that order.
type tableIIRow struct {
	id    string
	chain *core.Chain
	res   core.Resources
	sched strategy.Scheduler
}

func tableIIRows() []tableIIRow {
	var rows []tableIIRow
	for _, p := range platform.All() {
		for _, r := range p.Configs() {
			for _, s := range strategy.All() {
				rows = append(rows, tableIIRow{fmt.Sprintf("S%d", len(rows)+1), p.Chain(), r, s})
			}
		}
	}
	return rows
}

// directCall maps a strategy to the call into its own package that
// internal/strategy makes for it with default options and one worker.
func directCall(s strategy.Scheduler, c *core.Chain, r core.Resources, eps float64) (layer, func() core.Solution) {
	switch s.Name() {
	case "HeRAD":
		return lHerad, func() core.Solution { return herad.ScheduleOpts(c, r, herad.Options{Workers: 1, Epsilon: eps}) }
	case "2CATAC":
		return lTwocatac, func() core.Solution { return twocatac.Schedule(c, r) }
	case "FERTAC":
		return lFertac, func() core.Solution { return fertac.Schedule(c, r) }
	case "OTAC (B)":
		return lOtac, func() core.Solution { return otac.Schedule(c, r.Count(core.Big), core.Big) }
	case "OTAC (L)":
		return lOtac, func() core.Solution { return otac.Schedule(c, r.Count(core.Little), core.Little) }
	}
	panic("bench: no direct call for strategy " + s.Name())
}

func (w *planCold) add(group byte, tag, row string, class int, c *core.Chain, r core.Resources, s strategy.Scheduler, eps float64) {
	// Workers: 1 keeps HeRAD's wavefront pool out of the way, so that a
	// batch never has more busy goroutines than its own W workers.
	q := planReq{
		req:   strategy.Request{Chain: c, Resources: r, Scheduler: s, Options: strategy.Options{Workers: 1, Epsilon: eps}, Label: row},
		group: group, tag: tag, row: row, class: class, exact: s.Name() == "HeRAD" && eps == 0,
	}
	q.layer, q.direct = directCall(s, c, r, eps)
	w.reqs = append(w.reqs, q)
}

func (w *planCold) setup() error {
	var err error
	if w.tableII, err = readTableII(); err != nil {
		return err
	}
	sz := w.cfg.size
	// Planning cost depends on the chain drawn far more than any bound
	// allows (±30 % per chain at n=160, 2× in 2CATAC's allocations), so the
	// chains that carry the round's cost come from the frozen pool seed and
	// are the same in every run. --seed draws the k=3 chains, which are many
	// and cheap, and the order of the cheap requests.
	pool := rand.New(rand.NewSource(sz.poolSeed))
	rng := rand.New(rand.NewSource(w.cfg.seed))
	gen := func(cfg chaingen.Config, from *rand.Rand) *core.Chain {
		var c *core.Chain
		t := time.Now()
		w.tr.call(w.tr.scope(), -1, lChaingen, "generate", func() { c = chaingen.Generate(cfg, from) })
		w.genUs = append(w.genUs, float64(time.Since(t))/1e3)
		return c
	}
	all := strategy.All()
	heradS := strategy.MustParse("herad")
	class := 0

	// The expensive requests go first, longest first, so that the batch's
	// worker pool ends balanced whatever the order of the rest.
	for i := 0; i < sz.chainsD; i++ { // D: a long chain, exact and ε-beam
		c := gen(chaingen.Default(sz.longN, 0.5), pool)
		w.add('D', "n512_exact", "", class, c, core.Res(4, 4), heradS, 0)
		w.add('D', "n512_eps05", "", class, c, core.Res(4, 4), heradS, epsLong)
		class++
	}
	for k := len(sizesB) - 1; k >= 0; k-- { // B: the Fig. 3 scaling
		n := sizesB[k]
		for i := 0; i < sz.chainsB; i++ {
			c := gen(chaingen.Default(n, 0.8), pool)
			for _, s := range all {
				if s.Name() == "2CATAC" && n > 40 {
					continue // exponential past n=40
				}
				w.add('B', fmt.Sprintf("n%d", n), "", class, c, core.Res(20, 20), s, 0)
			}
			class++
		}
	}
	heavy := len(w.reqs)
	for _, sr := range srA { // A: the Table I grid
		for i := 0; i < sz.chainsA; i++ {
			c := gen(chaingen.Default(20, sr), pool)
			for _, r := range resA {
				for _, s := range all {
					w.add('A', "n20", "", class, c, r, s, 0)
				}
				class++
			}
		}
	}
	r3, err := core.ParseResources("4B,2M,8L")
	if err != nil {
		return err
	}
	for i := 0; i < sz.chainsC; i++ { // C: three core types, the general fill
		w.add('C', "k3", "", class, gen(chaingen.Default3(24, 0.5), rng), r3, heradS, 0)
		class++
	}
	for i, row := range tableIIRows() { // E: Table II, planned then simulated
		if i%len(all) == 0 {
			class++
		}
		w.add('E', "", row.id, class, row.chain, row.res, row.sched, 0)
	}
	cheap := w.reqs[heavy:]
	rng.Shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
	for i, q := range w.reqs {
		if q.group == 'E' {
			w.eRows = append(w.eRows, i)
		}
	}
	for i := 0; i < sz.bruteChains; i++ {
		w.brute = append(w.brute, gen(chaingen.Default(6+2*(i%3), 0.5), rng))
	}

	h := fnv.New64a()
	w.batch = make([]strategy.Request, len(w.reqs))
	for i, q := range w.reqs {
		w.batch[i] = q.req
		fmt.Fprintf(h, "%016x|%v|%s|%g\n", q.req.Chain.Fingerprint(), q.req.Resources, q.req.Scheduler.Name(), q.req.Options.Epsilon)
	}
	w.inDigest = h.Sum64()
	w.sims = make([]desim.Result, len(w.eRows))
	w.simErr = make([]error, len(w.eRows))

	for i := 0; i < sz.warmRounds; i++ {
		w.round(plain)
		if failed := w.check(false); failed > 0 {
			return fmt.Errorf("warm-up round: %d requests failed their oracle", failed)
		}
	}
	return nil
}

func (w *planCold) prepare(kind roundKind) {
	if kind != observed {
		return
	}
	// Every sink the planner has: metrics and the flight recorder on every
	// request, and a decision journal on groups A and E.
	reg, rec, j := obs.NewRegistry(), flight.New(0), trace.New()
	w.obs = append(w.obs[:0], w.batch...)
	for i := range w.obs {
		w.obs[i].Options.Metrics, w.obs[i].Options.Flight = reg, rec
		if g := w.reqs[i].group; g == 'A' || g == 'E' {
			w.obs[i].Options.Trace = j.Root()
		}
	}
}

func (w *planCold) simulate() {
	cfg := desim.Config{Frames: w.cfg.size.simFrames, QueueCap: simCap}
	for i, e := range w.eRows {
		w.sims[i], w.simErr[i] = desim.Simulate(w.reqs[e].req.Chain, w.results[e].Solution, cfg)
	}
}

func (w *planCold) round(kind roundKind) (int, time.Duration) {
	switch kind {
	case plain:
		w.results = strategy.PlanBatch(w.batch, w.cfg.w)
		w.simulate()
	case observed:
		w.results = strategy.PlanBatch(w.obs, w.cfg.w)
		w.simulate()
	case traced:
		return len(w.batch), w.tracedRound()
	}
	return len(w.batch), 0
}

// tracedRound runs the round three ways under spans: as the untraced run
// does (W workers, opaque), through PlanBatch with one worker, and request
// by request straight into each layer. The one-worker batch is the parent
// of the direct calls, so its self time is what internal/strategy adds.
func (w *planCold) tracedRound() time.Duration {
	tr := w.tr
	rd := tr.open(tr.scope(), -1, lBench, "round")
	t := time.Now()
	tr.call(rd, -1, lBench, "batchW", func() { w.results = strategy.PlanBatch(w.batch, w.cfg.w) })
	part := time.Since(t)

	b1 := tr.open(rd, -1, lStrategy, "planbatch")
	strategy.PlanBatch(w.batch, 1)
	tr.close(b1)

	// HeRAD first, so that its allocations are counted on their own.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, first := range []bool{true, false} {
		for i, q := range w.reqs {
			if (q.layer == lHerad) != first {
				continue
			}
			name := "schedule"
			if q.tag != "" {
				name += "." + q.tag
			}
			tr.call(b1, i, q.layer, name, func() { q.direct() })
			if first {
				w.heradCalls++
			}
		}
		if first {
			runtime.ReadMemStats(&ms)
			w.heradMallocs += ms.Mallocs - before
		}
	}
	cfg := desim.Config{Frames: w.cfg.size.simFrames, QueueCap: simCap}
	t = time.Now()
	for i, e := range w.eRows {
		tr.call(rd, e, lDesim, "simulate", func() {
			w.sims[i], w.simErr[i] = desim.Simulate(w.reqs[e].req.Chain, w.results[e].Solution, cfg)
		})
	}
	part += time.Since(t)
	tr.close(rd)
	return part
}

func (w *planCold) verify(kind roundKind) int { return w.check(kind != observed) }

// check applies the per-round oracles: every request planned, every
// solution valid, exact HeRAD no worse than any strategy on its (chain,
// resources) pair, the ε-beam within its bound, Table II periods equal to
// the paper's, desim in agreement with the analytic period, and the same
// periods as the first round. pool adds the requests' latencies to the
// pooled per-op samples.
func (w *planCold) check(pool bool) int {
	failed := 0
	best := map[int]float64{}
	for i, q := range w.reqs {
		if q.exact {
			best[q.class] = w.results[i].Period
		}
	}
	h := fnv.New64a()
	for i, q := range w.reqs {
		res := w.results[i]
		ok := res.Err == nil && res.Solution.Validate(q.req.Chain, q.req.Resources) == nil
		if opt, has := best[q.class]; ok && has {
			ok = opt <= res.Period*(1+1e-12)
			if q.req.Options.Epsilon > 0 {
				ok = ok && res.Period <= opt*(1+q.req.Options.Epsilon)*(1+1e-12)
			}
		}
		if want, isRow := w.tableII[q.row]; ok && q.group == 'E' {
			ok = isRow && math.Abs(res.Period-want) <= 0.1+1e-9
		}
		if !ok {
			failed++
		}
		if pool {
			w.lat = append(w.lat, res.Elapsed.Seconds()*1e3)
		}
		fmt.Fprintf(h, "%016x\n", math.Float64bits(res.Period))
	}
	for i, e := range w.eRows {
		if w.simErr[i] != nil || math.Abs(w.sims[i].Period-w.results[e].Period) > 1e-3*w.results[e].Period {
			failed++
		}
	}
	if w.perFirst == 0 {
		w.perFirst = h.Sum64()
	} else if h.Sum64() != w.perFirst {
		failed++ // the planner is deterministic: every round plans the same periods
	}
	return failed
}

func (w *planCold) latenciesMs() []float64 { return w.lat }

// finish cross-checks HeRAD against exhaustive search on the small chains.
func (w *planCold) finish() int {
	failed := 0
	for _, c := range w.brute {
		want := brute.MinPeriod(c, bruteR)
		if got := herad.Period(c, bruteR); math.Abs(got-want) > 1e-9*want {
			failed++
		}
	}
	return failed
}

func (w *planCold) digests() (uint64, uint64) { return w.inDigest, w.perFirst }

func (w *planCold) layers(spans []span, m map[string]float64) {
	tr := w.tr
	m["chaingen.generate_us_p50"] = median(w.genUs)
	for _, tag := range []string{"n20", "n40", "n80", "n160", "k3", "n512_exact", "n512_eps05"} {
		m["herad.plan_ms_p50."+tag] = median(durations(spans, tr, lHerad, "schedule."+tag, 1e6))
	}
	m["twocatac.plan_us_p50.n20"] = median(durations(spans, tr, lTwocatac, "schedule.n20", 1e3))
	m["twocatac.plan_us_p50.n40"] = median(durations(spans, tr, lTwocatac, "schedule.n40", 1e3))
	var fert, ot []float64
	for _, tag := range []string{"", ".n20", ".n40", ".n80", ".n160"} {
		fert = append(fert, durations(spans, tr, lFertac, "schedule"+tag, 1e3)...)
		ot = append(ot, durations(spans, tr, lOtac, "schedule"+tag, 1e3)...)
	}
	m["fertac.plan_us_p50"] = median(fert)
	m["otac.plan_us_p50"] = median(ot)
	if w.heradCalls > 0 {
		m["herad.allocs_per_plan"] = float64(w.heradMallocs) / float64(w.heradCalls)
	}

	batchW := durations(spans, tr, lBench, "batchW", 1)
	batch1 := durations(spans, tr, lStrategy, "planbatch", 1)
	if len(batchW) > 0 && len(batch1) > 0 {
		m["strategy.batch_speedup"] = median(batch1) / median(batchW)
		// Per traced round, what the one-worker batch took beyond the direct
		// calls that replay it. Signed: on a round where the layer adds nothing
		// measurable, noise decides the sign.
		direct := map[int32]int64{}
		for _, s := range spans {
			direct[s.parent] += s.dur()
		}
		var shares []float64
		planbatch := tr.nameIx["planbatch"]
		for _, s := range spans {
			if s.layer == lStrategy && s.name == planbatch {
				shares = append(shares, float64(s.dur()-direct[s.id])/float64(s.dur()))
			}
		}
		m["strategy.overhead_share"] = median(shares)
	}

	sims := durations(spans, tr, lDesim, "simulate", 1e3)
	m["desim.simulate_us_p50"] = median(sims)
	if us := median(sims); us > 0 {
		m["desim.sim_frames_per_s"] = float64(w.cfg.size.simFrames) / (us / 1e6)
	}
	for i, e := range w.eRows {
		q := w.reqs[e]
		analytic := desim.PredictPeriod(q.req.Chain, w.results[e].Solution)
		m["desim.period_err_max"] = math.Max(m["desim.period_err_max"], math.Abs(w.sims[i].Period-analytic)/analytic)
	}

	m["op_ms_p99.plan_cold"] = percentile(sorted(w.lat), 99)

	w.counts(m)
	w.probes(m)
}

// counts re-plans every request once with the layers' own counters attached
// and reports work per plan.
func (w *planCold) counts(m map[string]float64) {
	reg := obs.NewRegistry()
	hm, tm, fm := herad.MetricsFrom(reg), twocatac.MetricsFrom(reg), fertac.MetricsFrom(reg)
	var heradPlans, twoPlans, greedyPlans float64
	for _, q := range w.reqs {
		c, r := q.req.Chain, q.req.Resources
		switch q.req.Scheduler.Name() {
		case "HeRAD":
			herad.ScheduleOpts(c, r, herad.Options{Workers: 1, Epsilon: q.req.Options.Epsilon, Metrics: hm})
			heradPlans++
		case "2CATAC":
			sched.ScheduleM(c, r, twocatac.ComputeObs(false, tm), tm.Sched)
			twoPlans++
			greedyPlans++
		case "FERTAC":
			sched.ScheduleM(c, r, fertac.ComputeObs(fm), fm.Sched)
			greedyPlans++
		}
	}
	m["herad.dp_cells_per_plan"] = float64(hm.DPCells.Value()) / heradPlans
	m["twocatac.nodes_per_plan"] = float64(tm.Nodes.Value()) / twoPlans
	// 2CATAC and FERTAC share one registry, so one counter holds both.
	m["sched.probes_per_plan"] = float64(fm.Sched.SearchIterations.Value()) / greedyPlans
}

// probes are the micro-measurements whose layer this workload exercises.
func (w *planCold) probes(m map[string]float64) {
	scale := w.cfg.size.probeScale
	c20 := chaingen.GenerateMany(chaingen.Default(20, 0.5), w.cfg.seed, 1)[0]
	target := c20.TotalW(core.Big) / 4
	m["sched.maxpacking_ns_p50"] = probeNs(21, 20000/scale, func() { sched.MaxPacking(c20, 0, 4, core.Big, target) })

	// The ratios below alternate their two sides batch by batch, so that a
	// slow phase of the host falls on both.
	c24 := chaingen.GenerateMany(chaingen.Default(24, 0.5), w.cfg.seed, 1)[0]
	r8 := core.Res(8, 8)
	m["herad.general_over_fast"] = probeRatio(11, 1+40/scale,
		func() { herad.ScheduleOpts(c24, r8, herad.Options{Workers: 1, ForceGeneral: true}) },
		func() { herad.ScheduleOpts(c24, r8, herad.Options{Workers: 1}) })

	c160 := chaingen.GenerateMany(chaingen.Default(160, 0.8), w.cfg.seed, 1)[0]
	r20 := core.Res(20, 20)
	m["herad.wavefront_speedup"] = probeRatio(1+6/scale, 1,
		func() { herad.ScheduleOpts(c160, r20, herad.Options{Workers: 1}) },
		func() { herad.ScheduleOpts(c160, r20, herad.Options{Workers: w.cfg.w}) })

	s1 := tableIIRows()[0]
	sol := s1.sched.Schedule(s1.chain, s1.res, strategy.Options{})
	simCfg := desim.Config{Frames: w.cfg.size.simFrames, QueueCap: simCap}
	m["desim.sampled_over_plain"] = probeRatio(11, 1+20/scale,
		func() {
			sampled := simCfg
			sampled.Sample = &desim.SampleConfig{Metrics: obs.NewRegistry()}
			desim.Simulate(s1.chain, sol, sampled)
		},
		func() { desim.Simulate(s1.chain, sol, simCfg) })

	reg := obs.NewRegistry().Sub("herad")
	m["obs.metric_op_ns"] = probeNs(21, 20000/scale, func() {
		reg.Counter("schedule.calls").Inc()
		reg.Gauge("workers").Set(8)
		reg.Timer("schedule.ns").Start()()
	})

	heradS := strategy.MustParse("herad")
	m["trace.traced_over_untraced"] = probeRatio(11, 1+40/scale,
		func() { heradS.Schedule(c24, r8, strategy.Options{Workers: 1, Trace: trace.New().Root()}) },
		func() { heradS.Schedule(c24, r8, strategy.Options{Workers: 1}) })
}

// probeNs times reps batches of batch calls of f and returns the median
// time of one call in nanoseconds.
func probeNs(reps, batch int, f func()) float64 {
	return median(probe(reps, batch, f)[0])
}

// probeRatio times num and den in alternating batches and returns the ratio
// of their median times.
func probeRatio(reps, batch int, num, den func()) float64 {
	per := probe(reps, batch, num, den)
	return median(per[0]) / median(per[1])
}

// probe times reps batches of batch calls of each f, taking the fs in turn,
// and returns the time of one call in nanoseconds, per f and batch.
func probe(reps, batch int, fs ...func()) [][]float64 {
	if batch < 1 {
		batch = 1
	}
	per := make([][]float64, len(fs))
	for i := 0; i < reps; i++ {
		for k, f := range fs {
			t := time.Now()
			for j := 0; j < batch; j++ {
				f()
			}
			per[k] = append(per[k], float64(time.Since(t))/float64(batch))
		}
	}
	return per
}
