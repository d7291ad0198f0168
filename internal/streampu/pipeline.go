package streampu

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ampsched/internal/core"
	"ampsched/internal/obs/flight"
	"ampsched/internal/streampu/ring"
)

// Options configures a pipeline run.
type Options struct {
	// QueueCap is the buffered capacity of each adaptor queue (frames).
	// Defaults to 2; negative values are rejected by New.
	QueueCap int
	// TimeScale multiplies modeled latencies before realization; use > 1
	// on machines with coarse sleep granularity or fewer physical cores
	// than modeled. Reported periods and FPS are de-scaled back to the
	// modeled time base. Defaults to 1.
	TimeScale float64
	// Profile enables per-task latency measurement (see Stats.TaskMicros).
	Profile bool
	// Tracer, when set, records one timeline event per (frame, stage)
	// execution for offline analysis (see Tracer.WriteChromeTrace).
	Tracer *Tracer
	// Sampler, when set, receives per-frame (stage, latency) records for
	// live windowed telemetry; snapshot it with Sampler.Sample while the
	// run is in flight.
	Sampler *Sampler
	// Flight is accepted and ignored; it is kept only because bench/
	// sets it (ROADMAP item 1(g)).
	Flight *flight.Recorder
}

// validate rejects option values that would previously have been
// silently coerced (or worse, panicked deep inside the run): negative
// queue capacities and negative or non-finite scales. Zero values still
// select the documented defaults.
func (o Options) validate() error {
	if o.QueueCap < 0 {
		return fmt.Errorf("streampu: QueueCap = %d, want >= 0 (0 selects the default of 2)", o.QueueCap)
	}
	if o.TimeScale < 0 || math.IsNaN(o.TimeScale) || math.IsInf(o.TimeScale, 0) {
		return fmt.Errorf("streampu: TimeScale = %v, want a finite value >= 0 (0 selects 1)", o.TimeScale)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 2
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	return o
}

// Stats reports the outcome of a pipeline run. Period and FPS are
// expressed in the modeled time base (µs task weights), i.e. wall-clock
// measurements divided by the time scale.
type Stats struct {
	// Frames is the number of frames that left the pipeline.
	Frames int
	// Errored counts frames that finished with a non-nil Err.
	Errored int
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
	// PeriodMicros is the measured steady-state inter-departure time in
	// modeled microseconds (wall time ÷ TimeScale).
	PeriodMicros float64
	// FPS is the measured steady-state frame rate in the modeled time
	// base (1e6/PeriodMicros), before applying any interframe factor.
	FPS float64
	// TaskMicros holds each task's mean measured latency in modeled µs
	// (only when Options.Profile is set).
	TaskMicros []float64
}

// Throughput returns the measured frame rate scaled by the platform's
// interframe level.
func (s Stats) Throughput(interframe int) float64 {
	return s.FPS * float64(interframe)
}

// Pipeline is a runnable interval-mapped, replicated streaming pipeline.
type Pipeline struct {
	tasks  []Task
	sol    core.Solution
	opt    Options
	stages []pipeStage
	// newBoundary builds the adaptor between two stages; nil selects the
	// ring boundary. Tests set it after New to run a reference boundary.
	newBoundary func(r1, r2, cap int) boundary
}

type pipeStage struct {
	core.Stage
	tasks []Task // task templates for this stage
}

// New builds a pipeline executing tasks according to the schedule sol.
// The solution's stage intervals index into tasks; replicated stages must
// contain only replicable tasks.
func New(tasks []Task, sol core.Solution, opt Options) (*Pipeline, error) {
	if len(tasks) == 0 {
		return nil, errors.New("streampu: no tasks")
	}
	if sol.IsEmpty() {
		return nil, errors.New("streampu: empty solution")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	p := &Pipeline{tasks: tasks, sol: sol, opt: opt}
	next := 0
	for i, st := range sol.Stages {
		if st.Start != next || st.End < st.Start || st.End >= len(tasks) {
			return nil, fmt.Errorf("streampu: stage %d interval [%d,%d] does not tile the %d-task chain",
				i, st.Start, st.End, len(tasks))
		}
		if st.Cores < 1 {
			return nil, fmt.Errorf("streampu: stage %d has %d cores", i, st.Cores)
		}
		sub := tasks[st.Start : st.End+1]
		if st.Cores > 1 {
			for _, t := range sub {
				if !t.Replicable() {
					return nil, fmt.Errorf("streampu: stage %d replicates stateful task %s",
						i, t.Name())
				}
			}
		}
		p.stages = append(p.stages, pipeStage{Stage: st, tasks: sub})
		next = st.End + 1
	}
	if next != len(tasks) {
		return nil, fmt.Errorf("streampu: solution covers %d of %d tasks", next, len(tasks))
	}
	return p, nil
}

// boundary is the adaptor network between two consecutive stages: a
// queue matrix [u][w] from upstream replica u to downstream replica w.
// Frame seq flows from upstream replica seq%r1 to downstream replica
// seq%r2; each downstream replica drains its input queues in the
// deterministic round-robin order of the sequence numbers it owns, which
// preserves global frame order without a dedicated adaptor goroutine.
// This matrix is exactly the "connect two consecutive replicated stages"
// adaptor introduced for this paper in StreamPU v1.6.0 (r1 > 1 and
// r2 > 1); with r1 = 1 or r2 = 1 it degenerates to StreamPU's classic
// fork/join adaptors.
//
// Because the matrix routes every (u, w) pair through its own queue,
// each queue has exactly one producer and one consumer no matter how the
// stages fan in or out — which is what lets the implementation use SPSC
// rings with no locking anywhere on the frame path. The interface exists
// so boundary_test.go can run the buffered-channel matrix the rings
// replaced as a reference.
type boundary interface {
	// trySend hands f from upstream replica u to downstream replica w
	// without blocking; false means the queue was full (a stall).
	trySend(u, w int, f *Frame) bool
	// sendBlocking completes a hand-off that trySend refused.
	sendBlocking(u, w int, f *Frame)
	// recv blocks until a frame from upstream replica u arrives for
	// downstream replica w; ok == false means u closed its side and every
	// queued frame has been drained.
	recv(u, w int) (f *Frame, ok bool)
	// closeUp marks upstream replica u as finished.
	closeUp(u int)
}

// ringBoundary is the lock-free boundary: one bounded SPSC ring per
// (upstream, downstream) replica pair, flattened row-major. Blocking is
// the caller's probe→yield→sleep backoff over the non-blocking ring ops.
type ringBoundary struct {
	r2 int
	q  []*ring.SPSC[*Frame] // [u*r2 + w]
}

func newRingBoundary(r1, r2, cap int) *ringBoundary {
	b := &ringBoundary{r2: r2, q: make([]*ring.SPSC[*Frame], r1*r2)}
	for i := range b.q {
		b.q[i] = ring.NewSPSC[*Frame](cap)
	}
	return b
}

func (b *ringBoundary) trySend(u, w int, f *Frame) bool {
	return b.q[u*b.r2+w].TryPush(f)
}

func (b *ringBoundary) sendBlocking(u, w int, f *Frame) {
	q := b.q[u*b.r2+w]
	for i := 0; !q.TryPush(f); i++ {
		backoff(i)
	}
}

func (b *ringBoundary) recv(u, w int) (*Frame, bool) {
	q := b.q[u*b.r2+w]
	for i := 0; ; i++ {
		if f, ok := q.TryPop(); ok {
			return f, true
		}
		if q.Closed() {
			// The closing store is ordered after the producer's final
			// push: one more pop observes any element the pre-close probe
			// raced with.
			return q.TryPop()
		}
		backoff(i)
	}
}

func (b *ringBoundary) closeUp(u int) {
	for w := 0; w < b.r2; w++ {
		b.q[u*b.r2+w].Close()
	}
}

// backoff is the boundary waiting policy: probe a few times (the peer is
// usually mid-frame on another core), then yield the processor, then sleep
// with escalating, capped pauses (a stalled peer may legitimately be tens
// of milliseconds away — modeled latencies — and a sleeping waiter must
// not burn the core it vacated). The ladder asks for 20 µs … 1.28 ms, but
// on Linux the runtime rounds a sleep up to the next whole millisecond
// (its netpoll wait has a millisecond timeout): every rung below the last
// sleeps ~1.1 ms and the last ~2.1 ms. The hot phase is four probes, not
// dozens: Go has no PAUSE, so a loop on an atomic competes with the very
// sibling it waits for, and with one P nothing else runs until the first
// Gosched — 1024 probes measured slower than 64, 64 slower than 4, 4 and
// 16 alike (DESIGN.md §4j). None of the three branches allocates, so
// waiting preserves the 0 allocs/op pin.
func backoff(i int) {
	const spins, yields = 4, 128
	switch {
	case i < spins:
		// hot spin
	case i < spins+yields:
		runtime.Gosched()
	default:
		step := (i - spins - yields) / 32
		if step > 6 {
			step = 6
		}
		time.Sleep(time.Duration(20<<uint(step)) * time.Microsecond) // 20µs … 1.28ms requested
	}
}

// Run pushes frames frames through the pipeline and blocks until they all
// left the last stage. src may be nil; when set, it is called to populate
// each new frame's Data before the first task runs.
func (p *Pipeline) Run(frames int, src func(f *Frame)) (Stats, error) {
	if frames <= 0 {
		return Stats{}, fmt.Errorf("streampu: frames = %d, want > 0", frames)
	}
	m := len(p.stages)
	bounds := make([]boundary, m-1)
	inflight := 0 // frames that can exist simultaneously: one per worker...
	for _, st := range p.stages {
		inflight += st.Cores
	}
	for i := 0; i < m-1; i++ {
		r1, r2 := p.stages[i].Cores, p.stages[i+1].Cores
		if p.newBoundary != nil {
			bounds[i] = p.newBoundary(r1, r2, p.opt.QueueCap)
		} else {
			bounds[i] = newRingBoundary(r1, r2, p.opt.QueueCap)
		}
		inflight += r1 * r2 * p.opt.QueueCap // ...plus every boundary slot
	}
	// Recycle frames through a free list sized to the in-flight bound: the
	// source's pool.Get can only miss during the first lap, so the steady-
	// state frame loop never touches the allocator.
	pool := NewFramePool(inflight)

	startAll := time.Now() // before the first worker: Elapsed covers all they do
	p.opt.Sampler.bind(p.stages, p.opt.TimeScale, startAll)

	// The first quarter of the frames warms the pipeline up and is left out
	// of the measured period.
	warmup := frames / 4

	// The workers share the wait group and the clock that settles their
	// modeled waits, in one allocation; the clock starts on the first park.
	var shared struct {
		wg  sync.WaitGroup
		clk clock
	}
	type workerResult struct {
		processed  int
		errored    int
		taskTotals []time.Duration
		taskCounts []int
		warmAt     time.Time // departure time of frame #warmup (last stage only)
		lastAt     time.Time
		warmSeen   bool
	}
	results := make([][]*workerResult, m)

	for si := range p.stages {
		st := p.stages[si]
		results[si] = make([]*workerResult, st.Cores)
		for w := 0; w < st.Cores; w++ {
			res := &workerResult{}
			if p.opt.Profile {
				res.taskTotals = make([]time.Duration, len(st.tasks))
				res.taskCounts = make([]int, len(st.tasks))
			}
			results[si][w] = res

			// Per-replica task instances: clone replicable tasks that
			// carry scratch state.
			insts := st.tasks
			if st.Cores > 1 {
				insts = make([]Task, len(st.tasks))
				for i, t := range st.tasks {
					insts[i] = cloneFor(t)
				}
			}

			shared.wg.Add(1)
			go func(si, w int, st pipeStage, insts []Task, res *workerResult) {
				defer shared.wg.Done()
				wctx := &Worker{Core: st.Type, Scale: p.opt.TimeScale, ID: w, clk: &shared.clk}
				r := st.Cores
				var out boundary
				if si < m-1 {
					out = bounds[si]
				}
				var in boundary
				if si > 0 {
					in = bounds[si-1]
				}
				upR := 1
				if si > 0 {
					upR = p.stages[si-1].Cores
				}
				// The clock is read at pick-up only when something consumes
				// it: a sink or — sticky from the first frame that leaves
				// debt behind — Settle (the profiler settles per task from
				// its own reads).
				tb := p.opt.Tracer.newBuf(si, w, st.Type, frames/r+1)
				observed := tb != nil || p.opt.Sampler != nil
				timed := observed
				var pickup time.Time
				for seq := uint64(w); ; seq += uint64(r) {
					var f *Frame
					if si == 0 {
						if seq >= uint64(frames) {
							break
						}
						// Recycled frame: Err is clean, Data is whatever the
						// frame carried last lap (see FramePool's contract).
						f = pool.Get()
						f.Seq = seq
						if src != nil {
							src(f)
						}
					} else {
						ff, ok := in.recv(int(seq)%upR, w)
						if !ok {
							break
						}
						f = ff
					}
					if timed {
						pickup = time.Now()
					}
					for ti, t := range insts {
						var t0 time.Time
						if p.opt.Profile {
							t0 = time.Now()
						}
						if err := t.Process(wctx, f); err != nil && f.Err == nil {
							f.Err = fmt.Errorf("%s: %w", t.Name(), err)
						}
						if p.opt.Profile {
							// Settle per task so the measurement includes
							// the task's modeled latency.
							wctx.Settle(t0)
							res.taskTotals[ti] += time.Since(t0)
							res.taskCounts[ti]++
						}
					}
					// Realize the frame's accumulated modeled latency in
					// one absolute-deadline wait (nothing to do when profiling
					// or for purely computational tasks). The first frame to
					// carry debt on an untimed worker is settled from the end
					// of its compute; every later one from its pick-up.
					if wctx.debt > 0 {
						if !timed {
							timed, pickup = true, time.Now()
						}
						wctx.Settle(pickup)
					}
					if observed {
						d := time.Since(pickup)
						if tb != nil {
							tb.add(f.Seq, pickup, d)
						}
						p.opt.Sampler.Record(si, d)
					}
					res.processed++
					if f.Err != nil {
						res.errored++
					}
					if si == m-1 {
						// Two departures define the period: frame #warmup and
						// this replica's final frame. No other reads the clock.
						isWarm, isLast := f.Seq == uint64(warmup), f.Seq+uint64(r) >= uint64(frames)
						if isWarm || isLast {
							now := time.Now()
							if isWarm {
								res.warmAt, res.warmSeen = now, true
							}
							if isLast {
								res.lastAt = now
							}
						}
						// The frame is done: hand it back for the source to
						// reuse. Every field the next lap cares about is reset
						// by Put (Err) or overwritten at Get (Seq).
						pool.Put(f)
					} else {
						// Probe first: a full buffer means this replica is
						// about to block on backpressure — the replica-stall
						// signal the sampler counts. The probe is the ring's
						// natural fast path, so detection costs nothing when
						// the sampler is off.
						dw := int(f.Seq) % p.stages[si+1].Cores
						if !out.trySend(w, dw, f) {
							p.opt.Sampler.RecordStall(si)
							out.sendBlocking(w, dw, f)
						}
					}
				}
				// Signal downstream that this replica is done.
				if out != nil {
					out.closeUp(w)
				}
			}(si, w, st, insts, res)
		}
	}

	shared.wg.Wait()
	elapsed := time.Since(startAll)
	shared.clk.stop()

	stats := Stats{Elapsed: elapsed}
	var warmAt, lastAt time.Time
	warmSeen := false
	for _, res := range results[m-1] {
		stats.Frames += res.processed
		stats.Errored += res.errored
		if res.warmSeen {
			warmAt = res.warmAt
			warmSeen = true
		}
		if res.lastAt.After(lastAt) {
			lastAt = res.lastAt
		}
	}
	if warmSeen && stats.Frames > warmup+1 {
		span := lastAt.Sub(warmAt)
		n := stats.Frames - warmup - 1
		stats.PeriodMicros = span.Seconds() * 1e6 / float64(n) / p.opt.TimeScale
		if stats.PeriodMicros > 0 {
			stats.FPS = 1e6 / stats.PeriodMicros
		}
	}
	if p.opt.Profile {
		stats.TaskMicros = make([]float64, len(p.tasks))
		for si, st := range p.stages {
			for ti := range st.tasks {
				var total time.Duration
				var count int
				for _, res := range results[si] {
					total += res.taskTotals[ti]
					count += res.taskCounts[ti]
				}
				if count > 0 {
					stats.TaskMicros[st.Start+ti] = total.Seconds() * 1e6 / float64(count) / p.opt.TimeScale
				}
			}
		}
	}
	return stats, nil
}

// RunChain executes tasks sequentially (single worker, big core, no
// pipeline) over frames frames — the reference execution mode used by
// functional tests and by profiling.
func RunChain(tasks []Task, frames int, src func(f *Frame)) (Stats, error) {
	sol := core.Solution{Stages: []core.Stage{{Start: 0, End: len(tasks) - 1, Cores: 1, Type: core.Big}}}
	// A single all-tasks stage is valid even with stateful tasks.
	p, err := New(tasks, sol, Options{})
	if err != nil {
		return Stats{}, err
	}
	return p.Run(frames, src)
}

// ProfileTypes measures each task's mean latency (in µs) by running the
// chain sequentially on a single virtual core of each of the first numTypes
// core types; out[v][i] is task i on type v. For latency-modeled tasks
// this recovers their weights; for computational tasks it measures real
// execution time, the same on every type of one host. The scale stretches
// modeled time for measurement stability.
func ProfileTypes(tasks []Task, numTypes, frames int, scale float64) ([][]float64, error) {
	out := make([][]float64, numTypes)
	for v := 0; v < numTypes; v++ {
		sol := core.Solution{Stages: []core.Stage{
			{Start: 0, End: len(tasks) - 1, Cores: 1, Type: core.CoreType(v)},
		}}
		p, err := New(tasks, sol, Options{Profile: true, TimeScale: scale})
		if err != nil {
			return out, err
		}
		st, err := p.Run(frames, nil)
		if err != nil {
			return out, err
		}
		out[v] = st.TaskMicros
	}
	return out, nil
}
