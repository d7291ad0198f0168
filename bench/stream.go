package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/dvbs2"
	"ampsched/internal/obs/flight"
	"ampsched/internal/strategy"
	"ampsched/internal/streampu"
	"ampsched/internal/streampu/ring"
)

// latencyPoolCap is the room set aside for a run's pooled frame latencies,
// allocated once so that the pool's growth never shows in live_heap_mb;
// handoffStride keeps a run of stream_handoff inside it.
const (
	latencyPoolCap = 1 << 19
	handoffStride  = 64
)

// streamRun is one pipeline run of a streaming round and what it showed.
type streamRun struct {
	stats  streampu.Stats
	err    error
	failed int // lost, reordered or errored frames
}

// runPipeline builds the pipeline for sol over tasks (wrapped by rec) and
// pushes frames frames through it, with every sink attached when observed.
func runPipeline(rec *frameRec, tasks []streampu.Task, sol core.Solution, opt streampu.Options, frames int, kind roundKind, parent openSpan) streamRun {
	wrappedTasks := rec.start(tasks, frames, parent)
	var s *sinks
	if kind == observed {
		s = attachSinks(opt)
		opt = s.opt
	}
	var run streamRun
	p, err := streampu.New(wrappedTasks, sol, opt)
	if err == nil {
		run.stats, err = p.Run(frames, nil)
	}
	if s != nil {
		s.stopSinks()
	}
	run.err = err
	left, misordered, lost := rec.outcome()
	run.failed = misordered + lost + run.stats.Errored
	if err != nil || left != frames || run.stats.Frames != frames {
		run.failed = frames
	}
	return run
}

// pool appends every stride-th latency of the last run, in ms.
func (r *frameRec) pool(dst []float64, stride int) []float64 {
	for i := 0; i < len(r.lat); i += stride {
		dst = append(dst, float64(r.lat[i])/1e6)
	}
	return dst
}

// chainShape is a zero-work chain and the schedule that runs it.
type chainShape struct {
	tasks []streampu.Task
	sol   core.Solution
	opt   streampu.Options
}

// shape builds stages one-core stages of one task each (or, with stages ==
// 1, all tasks tasks in one stage), each task spinning for work.
func shape(tasks, stages, queueCap int, work time.Duration) chainShape {
	var s chainShape
	for i := 0; i < tasks; i++ {
		s.tasks = append(s.tasks, &streampu.FuncTask{TaskName: fmt.Sprintf("t%d", i), Fn: func(*streampu.Worker, *streampu.Frame) error {
			if work > 0 {
				for t := time.Now(); time.Since(t) < work; {
				}
			}
			return nil
		}})
	}
	per := tasks / stages
	for i := 0; i < stages; i++ {
		s.sol.Stages = append(s.sol.Stages, core.Stage{Start: i * per, End: (i+1)*per - 1, Cores: 1, Type: core.Big})
	}
	s.opt = streampu.Options{QueueCap: queueCap}
	return s
}

// handoff is the hand-off-bound workload: zero-work tasks, so ring push and
// pop, the frame pool, backoff and the per-frame sink cost are the whole
// frame.
type handoff struct {
	cfg config
	tr  *tracer

	chainW chainShape
	recs   [2]frameRec // untraced wrappers, traced wrappers
	rec    *frameRec   // the one the last round used
	last   streamRun
	lat    []float64
	rounds []float64 // frames/s of the traced run's plain and observed rounds
	obsFPS []float64
}

func (w *handoff) frames(kind roundKind) int {
	if kind == observed {
		// The streampu Tracer keeps an event per frame and stage; a quarter
		// of the frames keeps its memory in bounds.
		return w.cfg.size.handoffFrames / 4
	}
	return w.cfg.size.handoffFrames
}

func (w *handoff) setup() error {
	w.chainW = shape(w.cfg.w, w.cfg.w, 2, 0)
	w.recs = [2]frameRec{{t0: time.Now()}, {t0: time.Now(), tr: w.tr, every: 256, layer: lBench}}
	w.lat = make([]float64, 0, latencyPoolCap)
	for i := 0; i < w.cfg.size.warmRounds; i++ {
		if _, _ = w.round(plain); w.last.failed > 0 {
			return fmt.Errorf("warm-up round lost or reordered %d frames: %v", w.last.failed, w.last.err)
		}
	}
	return nil
}

func (w *handoff) prepare(roundKind) {}

func (w *handoff) round(kind roundKind) (int, time.Duration) {
	// The traced run's plain and observed rounds measure what tracing
	// costs, so they run with the untraced wrappers.
	rd := openSpan{}
	w.rec = &w.recs[0]
	if kind == traced {
		rd = w.tr.open(w.tr.scope(), -1, lBench, "round")
		w.rec = &w.recs[1]
	}
	n := w.frames(kind)
	w.last = runPipeline(w.rec, w.chainW.tasks, w.chainW.sol, w.chainW.opt, n, kind, rd)
	w.tr.close(rd)
	return n, 0
}

func (w *handoff) verify(kind roundKind) int {
	if kind == plain {
		w.lat = w.rec.pool(w.lat, handoffStride)
	}
	if w.tr != nil && w.last.stats.Elapsed > 0 {
		fps := float64(w.last.stats.Frames) / w.last.stats.Elapsed.Seconds()
		switch kind {
		case plain:
			w.rounds = append(w.rounds, fps)
		case observed:
			w.obsFPS = append(w.obsFPS, fps)
		}
	}
	return w.last.failed
}

func (w *handoff) latenciesMs() []float64 { return w.lat }
func (w *handoff) finish() int            { return 0 }

func (w *handoff) digests() (uint64, uint64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "stages=%d frames=%d cap=2", w.cfg.w, w.cfg.size.handoffFrames)
	return h.Sum64(), 0
}

func (w *handoff) layers(spans []span, m map[string]float64) {
	sz := w.cfg.size
	if len(w.obsFPS) > 0 {
		m["streampu.sinks_on_over_off"] = median(w.rounds) / median(w.obsFPS)
	}
	// Hand-off per boundary: what a traced frame's span does not spend in
	// its tasks, over the boundaries it crossed.
	if bounds := w.cfg.w - 1; bounds > 0 {
		frame, ok := w.tr.nameIx["frame"]
		child := map[int32]int64{}
		for _, s := range spans {
			child[s.parent] += s.dur()
		}
		var gaps []float64
		for _, s := range spans {
			if ok && s.layer == lStreampu && s.name == frame {
				gaps = append(gaps, float64(s.dur()-child[s.id])/float64(bounds))
			}
		}
		m["streampu.handoff_ns_per_boundary"] = median(gaps)
	}

	shapes := []struct {
		name string
		chainShape
	}{
		{"s1", shape(w.cfg.w, 1, 2, 0)},
		{"chainW", w.chainW},
		{"cap64", shape(w.cfg.w, w.cfg.w, 64, 0)},
		{"work10us", shape(w.cfg.w, w.cfg.w, 2, 10*time.Microsecond)},
	}
	for _, s := range shapes {
		name, frames := s.name, sz.shapeFrames
		if name == "work10us" {
			frames /= 8
		}
		var fps []float64
		for i := 0; i < 3; i++ {
			run := runPipeline(&w.recs[0], s.tasks, s.sol, s.opt, frames, plain, openSpan{})
			fps = append(fps, float64(frames)/run.stats.Elapsed.Seconds())
		}
		m["streampu.frames_per_s."+name] = median(fps)
	}

	n := 1 + 200000/sz.probeScale
	f := &streampu.Frame{}
	spsc, mpmc := ring.NewSPSC[*streampu.Frame](8), ring.NewMPMC[*streampu.Frame](8)
	m["ring.spsc_ns_per_op"] = probeNs(11, n, func() { spsc.TryPush(f); spsc.TryPop() })
	m["ring.mpmc_ns_per_op"] = probeNs(11, n, func() { mpmc.TryPush(f); mpmc.TryPop() })
	m["ring.spsc_xthread_ns_per_op"] = spscAcross(n * 10)
	pool := streampu.NewFramePool(8)
	m["streampu.framepool_ns_per_op"] = probeNs(11, n, func() { pool.Put(pool.Get()) })
	sampler := streampu.NewSampler(nil)
	sampler.BindStages([]int{1, 2}, 1, time.Now())
	m["streampu.sampler_record_ns"] = probeNs(11, n, func() { sampler.Record(1, time.Microsecond) })
	rec := flight.New(0)
	m["flight.record_ns"] = probeNs(11, n, func() { rec.Record(flight.Event{Code: flight.CodeWindow, Stage: 1, A: 0.5, B: 120}) })
}

// spscAcross pushes n frames from one goroutine to another through an SPSC
// ring and returns the time per frame in nanoseconds.
func spscAcross(n int) float64 {
	q := ring.NewSPSC[*streampu.Frame](64)
	f := &streampu.Frame{}
	var wg sync.WaitGroup
	wg.Add(1)
	t := time.Now()
	go func() {
		defer wg.Done()
		for got := 0; got < n; {
			if _, ok := q.TryPop(); ok {
				got++
			} else {
				runtime.Gosched() // one core must serve both ends
			}
		}
	}()
	for sent := 0; sent < n; {
		if q.TryPush(f) {
			sent++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	return float64(time.Since(t)) / float64(n)
}

// rxLive is the compute-bound workload: the real DVB-S2 receiver on real
// cores, scheduled by HeRAD from a profile taken during set-up.
type rxLive struct {
	cfg config
	tr  *tracer

	rx      *dvbs2.Receiver
	tasks   []streampu.Task
	chain   *core.Chain
	sol     core.Solution
	planned float64     // period the schedule promises, µs
	recs    [2]frameRec // untraced wrappers, traced wrappers
	rec     *frameRec   // the one the last round used
	last    streamRun
	lat     []float64

	frameErrs0 int64
	ratios     []float64 // planned ÷ achieved period, plain rounds
	pipeFPS    []float64
	serialFPS  []float64
	busy       []float64 // per task, ns, summed over traced rounds
	tracedWall float64   // ns
	tracedLat  []float64
}

func (w *rxLive) setup() error {
	sz := w.cfg.size
	tx, err := dvbs2.NewTransmitter(dvbs2.Test())
	if err != nil {
		return err
	}
	channel := dvbs2.DefaultChannel()
	channel.Seed = w.cfg.seed
	w.rx = dvbs2.NewReceiver(tx, dvbs2.NewTxStream(tx, channel))
	w.tasks = w.rx.Tasks()

	var prof [][]float64
	w.tr.call(w.tr.scope(), -1, lStreampu, "profile", func() { prof, err = streampu.ProfileTypes(w.tasks, 1, sz.rxProfileFrames, 1) })
	if err != nil {
		return err
	}
	// The host's cores are all alike, so both core types get the measured
	// weight: the model must not promise a heterogeneity that is not there.
	weights := make([][]float64, len(w.tasks))
	for i, us := range prof[0] {
		if us <= 0 {
			us = 0.01 // never schedule a zero-weight task
		}
		weights[i] = core.Weights(us, us)
	}
	if w.chain, err = w.rx.ModelChain(weights); err != nil {
		return err
	}
	res := core.Res(w.cfg.w-w.cfg.w/2, w.cfg.w/2)
	w.sol = heradSched.Schedule(w.chain, res, strategy.Options{Workers: 1})
	if err := w.sol.Validate(w.chain, res); err != nil {
		return fmt.Errorf("schedule of the profiled receiver: %w", err)
	}
	w.planned = w.sol.Period(w.chain)
	fmt.Fprintf(w.cfg.log, "detail schedule %v planned_period_us=%.1f serial_us=%.1f\n", w.sol, w.planned, w.chain.TotalW(core.Big))

	w.recs = [2]frameRec{{t0: time.Now()}, {t0: time.Now(), tr: w.tr, every: 4, layer: lDvbs2}}
	w.lat = make([]float64, 0, latencyPoolCap/4)
	for i := 0; i < sz.warmRounds; i++ {
		if w.round(plain); w.last.failed > 0 {
			return fmt.Errorf("warm-up round failed %d frames: %v", w.last.failed, w.last.err)
		}
	}
	w.frameErrs0 = w.rx.Monitor.FrameErrors.Load()
	w.busy = make([]float64, len(w.tasks))
	return nil
}

func (w *rxLive) prepare(roundKind) {}

func (w *rxLive) round(kind roundKind) (int, time.Duration) {
	n := w.cfg.size.rxFrames
	rd := openSpan{}
	w.rec = &w.recs[0]
	if kind == traced {
		rd = w.tr.open(w.tr.scope(), -1, lBench, "round")
		w.rec = &w.recs[1]
	}
	before := w.rx.Monitor.FrameErrors.Load()
	w.last = runPipeline(w.rec, w.tasks, w.sol, streampu.Options{QueueCap: 2}, n, kind, rd)
	w.last.failed += int(w.rx.Monitor.FrameErrors.Load() - before)
	w.tr.close(rd)
	if kind == traced {
		for i, b := range w.rec.busyByTask() {
			w.busy[i] += b
		}
		w.tracedWall += float64(w.last.stats.Elapsed)
		w.tracedLat = w.rec.pool(w.tracedLat, 1)
	}
	return n, 0
}

func (w *rxLive) verify(kind roundKind) int {
	if kind == plain {
		w.lat = w.rec.pool(w.lat, 1)
		if p := w.last.stats.PeriodMicros; p > 0 {
			w.ratios = append(w.ratios, w.planned/p)
			w.pipeFPS = append(w.pipeFPS, w.last.stats.FPS)
		}
		if w.tr != nil {
			// One serial round per plain round of the traced run: the same
			// receiver, one worker, no pipeline.
			if st, err := streampu.RunChain(w.tasks, w.cfg.size.rxFrames/2, nil); err == nil {
				w.serialFPS = append(w.serialFPS, st.FPS)
			}
		}
	}
	return w.last.failed
}

func (w *rxLive) latenciesMs() []float64 { return w.lat }

// finish holds the receiver to the thresholds of internal/dvbs2's own
// end-to-end tests: at most a handful of dirty frames while the loops
// settle, none afterwards.
func (w *rxLive) finish() int {
	failed := 0
	if w.rx.Monitor.FrameErrors.Load() > 6 || w.rx.Monitor.BER() > 1e-3 {
		failed++
	}
	if w.rx.Monitor.Frames.Load() == 0 {
		failed++ // the receiver never locked
	}
	return failed
}

func (w *rxLive) digests() (uint64, uint64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v seed=%d frames=%d", dvbs2.Test(), w.cfg.seed, w.cfg.size.rxFrames)
	return h.Sum64(), 0
}

func (w *rxLive) layers(spans []span, m map[string]float64) {
	m["achieved_over_planned.rx_live"] = median(w.ratios)
	if len(w.serialFPS) > 0 {
		m["speedup_vs_serial.rx_live"] = median(w.pipeFPS) / median(w.serialFPS)
	}
	lat := sorted(w.tracedLat)
	m["streampu.frame_latency_ms_p99"] = percentile(lat, 99)
	m["dvbs2.ber"] = w.rx.Monitor.BER()

	// Busy share of a stage: time inside its tasks ÷ (wall × cores).
	var shares []float64
	bottleneck, heaviest := 0.0, 0.0
	for _, st := range w.sol.Stages {
		busy := sum(w.busy[st.Start : st.End+1])
		share := busy / (w.tracedWall * float64(st.Cores))
		shares = append(shares, share)
		if load := w.chain.Weight(st.Start, st.End, st.Cores, st.Type); load > heaviest {
			heaviest, bottleneck = load, share
		}
	}
	m["streampu.bottleneck_busy_share"] = bottleneck
	m["streampu.mean_busy_share"] = sum(shares) / float64(len(shares))

	// Per-task medians from the traced frames; a frame's compute time is
	// the sum of its task spans.
	perTask := make([][]float64, len(w.tasks))
	perFrame := map[int32]float64{}
	names := map[uint16]int{}
	for i, t := range w.tasks {
		names[w.tr.nameIx[t.Name()]] = i
	}
	for _, s := range spans {
		if s.layer != lDvbs2 {
			continue
		}
		i := names[s.name]
		perTask[i] = append(perTask[i], float64(s.dur())/1e3)
		perFrame[s.parent] += float64(s.dur()) / 1e3
	}
	heavy := map[int]bool{}
	for _, h := range dvbs2Heavy {
		m["dvbs2.task_us_p50."+h.slug] = median(perTask[h.task])
		heavy[h.task] = true
	}
	seq, all := 0.0, 0.0
	for i, t := range w.tasks {
		if !heavy[i] {
			m["dvbs2.task_us_p50.other"] += median(perTask[i])
		}
		all += sum(perTask[i])
		if !t.Replicable() {
			seq += sum(perTask[i])
		}
	}
	if all > 0 {
		m["dvbs2.seq_share"] = seq / all
	}
	frames := make([]float64, 0, len(perFrame))
	for _, us := range perFrame {
		frames = append(frames, us)
	}
	sort.Float64s(frames)
	m["dvbs2.frame_us_p50"] = percentile(frames, 50)

	tx, err := dvbs2.NewTransmitter(dvbs2.Test())
	if err == nil {
		m["dvbs2.tx_encode_us_p50"] = probeNs(1+100/w.cfg.size.probeScale, 1, func() { tx.EncodeFrame() }) / 1e3
	}
}
