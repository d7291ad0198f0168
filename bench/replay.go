package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"ampsched/internal/desim"
	"ampsched/internal/obs"
	"ampsched/internal/obs/flight"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
)

// replayScale stretches the modeled latencies so that the host's sleep
// granularity is small against a task (the value cmd/experiments uses).
const replayScale = 10

// replayRow is one Table II row taken plan → predict → build → run.
type replayRow struct {
	tableIIRow
	frames int // frames the run pushes: a fixed share of --seconds at the planned period

	planned, simulated, achieved float64 // periods, µs
	failed                       bool
}

// replay is the paper's Table II experiment as one measured unit: the
// HeRAD, 2CATAC and FERTAC rows of all four configurations, run on sleeping
// virtual cores. It is timer-bound: the CPU goes to Settle's spin guard and
// to the ring backoff only.
type replay struct {
	cfg config
	tr  *tracer

	rows    []replayRow
	tableII map[string]float64
	lat     []float64
	latNow  []float64 // this round's plan→predict→build times, ms
	opts    strategy.Options
	rec     frameRec

	extra     time.Duration        // what a traced round does beyond a plain one
	ratios    map[string][]float64 // planned ÷ achieved per row, plain rounds
	newUs     []float64
	overshoot []float64 // µs of wall time a task's Settle ran past its modeled latency
	inDigest  uint64
}

func (w *replay) setup() error {
	var err error
	if w.tableII, err = readTableII(); err != nil {
		return err
	}
	w.ratios = map[string][]float64{}
	w.opts = strategy.Options{Workers: 1}
	w.rec = frameRec{t0: time.Now(), tr: w.tr, every: 1, layer: lStreampu}
	for _, row := range tableIIRows()[:w.cfg.size.replayRows] {
		switch row.sched.Name() {
		case "HeRAD", "2CATAC", "FERTAC":
			want, ok := w.tableII[row.id]
			if !ok {
				return fmt.Errorf("no reference period for row %s", row.id)
			}
			// Sized from the reference period, not from the plan, so that a
			// planner change cannot change how much work a round is.
			window := w.cfg.seconds * w.cfg.size.replayRowShare
			frames := int(window * 1e6 / (want * replayScale))
			if frames < w.cfg.size.replayMinFrames {
				frames = w.cfg.size.replayMinFrames
			}
			w.rows = append(w.rows, replayRow{tableIIRow: row, frames: frames})
		}
	}
	// Warm-up: every row planned, predicted and built once, and the first
	// row of the table run, so that the first measured round starts with
	// warm code.
	for i := range w.rows {
		if _, err := w.build(&w.rows[i], w.opts, streampu.Options{}); err != nil {
			return err
		}
	}
	for i := 0; i < w.cfg.size.warmRounds; i++ {
		w.run(&w.rows[0], plain, openSpan{})
		if w.rows[0].failed {
			return fmt.Errorf("warm-up run of row %s failed", w.rows[0].id)
		}
	}

	// The seed decides the order the rows are visited in.
	rand.New(rand.NewSource(w.cfg.seed)).Shuffle(len(w.rows), func(i, j int) { w.rows[i], w.rows[j] = w.rows[j], w.rows[i] })
	h := fnv.New64a()
	for _, r := range w.rows {
		fmt.Fprintf(h, "%s|%d\n", r.id, r.frames)
	}
	w.inDigest = h.Sum64()
	return nil
}

// build takes a row from request to runnable pipeline: PlanBatch, desim,
// streampu.New.
func (w *replay) build(r *replayRow, opts strategy.Options, popt streampu.Options) (*streampu.Pipeline, error) {
	req := []strategy.Request{{Chain: r.chain, Resources: r.res, Scheduler: r.sched, Options: opts, Label: r.id}}
	res := strategy.PlanBatch(req, 1)[0]
	if res.Err != nil {
		return nil, res.Err
	}
	sim, err := desim.Simulate(r.chain, res.Solution, desim.Config{Frames: w.cfg.size.simFrames, QueueCap: simCap})
	if err != nil {
		return nil, err
	}
	r.planned, r.simulated = res.Period, sim.Period
	popt.TimeScale, popt.QueueCap = replayScale, simCap
	return streampu.New(streampu.TimedChain(r.chain), res.Solution, popt)
}

// run takes one row through the whole chain. The plan→predict→build step
// is repeated replayReps times, each repetition one latency sample; the
// last pipeline built is the one that runs.
func (w *replay) run(r *replayRow, kind roundKind, rd openSpan) {
	opts := w.opts
	var s *sinks
	var popt streampu.Options
	if kind == observed {
		opts.Metrics, opts.Flight = obs.NewRegistry(), flight.New(0)
		s = attachSinks(popt)
		popt = s.opt
	}
	var p *streampu.Pipeline
	var err error
	for i := 0; i < w.cfg.size.replayReps && err == nil; i++ {
		t := time.Now()
		p, err = w.build(r, opts, popt)
		w.latNow = append(w.latNow, time.Since(t).Seconds()*1e3)
	}
	var st streampu.Stats
	if err == nil {
		if kind == traced {
			st, err = w.tracedRun(r, rd)
		} else {
			st, err = p.Run(r.frames, nil)
		}
	}
	if s != nil {
		s.stopSinks()
	}
	r.achieved = st.PeriodMicros
	want := w.tableII[r.id]
	r.failed = err != nil || st.Frames != r.frames || st.Errored != 0 ||
		math.Abs(r.planned-want) > 0.1+1e-9 || math.Abs(r.simulated-r.planned) > 1e-3*r.planned
}

// tracedRun is the row's run under spans: plan, predict and build once more
// as spans of their layers, every task wrapped, and a short extra run with
// streampu's own per-task profile for the Settle overshoot.
func (w *replay) tracedRun(r *replayRow, rd openSpan) (streampu.Stats, error) {
	tr := w.tr
	row := tr.open(rd, -1, lBench, "row."+r.id)
	defer tr.close(row)
	t0 := time.Now()
	var res strategy.Result
	tr.call(row, -1, lStrategy, "planbatch", func() {
		res = strategy.PlanBatch([]strategy.Request{{Chain: r.chain, Resources: r.res, Scheduler: r.sched, Options: w.opts}}, 1)[0]
	})
	tr.call(row, -1, lDesim, "simulate", func() {
		desim.Simulate(r.chain, res.Solution, desim.Config{Frames: w.cfg.size.simFrames, QueueCap: simCap})
	})
	tasks := w.rec.start(streampu.TimedChain(r.chain), r.frames, row)
	popt := streampu.Options{TimeScale: replayScale, QueueCap: simCap}
	var p *streampu.Pipeline
	var err error
	t := time.Now()
	tr.call(row, -1, lStreampu, "new", func() { p, err = streampu.New(tasks, res.Solution, popt) })
	w.newUs = append(w.newUs, float64(time.Since(t))/1e3)
	if err != nil {
		return streampu.Stats{}, err
	}
	w.extra += time.Since(t0)
	st, err := p.Run(r.frames, nil)
	if err != nil {
		return st, err
	}

	defer func(t time.Time) { w.extra += time.Since(t) }(time.Now())
	popt.Profile = true
	prof, err := streampu.New(streampu.TimedChain(r.chain), res.Solution, popt)
	if err != nil {
		return st, err
	}
	ps, err := prof.Run(w.cfg.size.replayMinFrames, nil)
	if err != nil {
		return st, err
	}
	for _, stage := range res.Solution.Stages {
		for i := stage.Start; i <= stage.End; i++ {
			// A replicated stage's task still takes its full weight on the
			// replica that runs it.
			w.overshoot = append(w.overshoot, (ps.TaskMicros[i]-r.chain.Task(i).W(stage.Type))*replayScale)
		}
	}
	return st, nil
}

func (w *replay) prepare(roundKind) { w.latNow = w.latNow[:0] }

func (w *replay) round(kind roundKind) (int, time.Duration) {
	if kind != traced {
		for i := range w.rows {
			w.run(&w.rows[i], kind, openSpan{})
		}
		return len(w.rows), 0
	}
	rd := w.tr.open(w.tr.scope(), -1, lBench, "round")
	t := time.Now()
	w.extra = 0
	for i := range w.rows {
		w.run(&w.rows[i], kind, rd)
	}
	w.tr.close(rd)
	return len(w.rows), time.Since(t) - w.extra
}

func (w *replay) verify(kind roundKind) int {
	failed := 0
	for _, r := range w.rows {
		if r.failed {
			failed++
		}
		if kind == plain && r.achieved > 0 {
			w.ratios[r.id] = append(w.ratios[r.id], r.planned/r.achieved)
		}
	}
	if kind == plain {
		w.lat = append(w.lat, w.latNow...)
	}
	return failed
}

func (w *replay) latenciesMs() []float64 { return w.lat }
func (w *replay) finish() int            { return 0 }

func (w *replay) digests() (uint64, uint64) {
	h := fnv.New64a()
	for _, r := range tableIIRows() {
		for _, mine := range w.rows {
			if mine.id == r.id {
				fmt.Fprintf(h, "%s|%016x\n", r.id, math.Float64bits(mine.planned))
			}
		}
	}
	return w.inDigest, h.Sum64()
}

func (w *replay) layers(spans []span, m map[string]float64) {
	var perRow []float64
	for _, r := range w.ratios {
		perRow = append(perRow, median(r))
	}
	if len(perRow) > 0 {
		m["achieved_over_planned.replay_tableII"] = geomean(perRow)
		m["achieved_over_planned_min.replay_tableII"] = sorted(perRow)[0]
	}
	m["streampu.new_us_p50"] = median(w.newUs)
	m["streampu.settle_overshoot_us_p50"] = median(w.overshoot)
}
