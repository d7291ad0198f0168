package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time; the traced run spends half on rounds and the rest on probes
	trace    bool
	size     sizing
	out      string    // directory for trace files
	w        int       // busy goroutines allowed: min(GOMAXPROCS, 4)
	log      io.Writer // details of the run, one line each
}

// hostW is the host sizing rule: never more busy goroutines than this.
func hostW() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// roundKind says how a round is run: plain rounds give every end-to-end
// metric but observed_ops_per_s, observed rounds (all telemetry sinks
// attached) give that one, traced rounds record spans.
type roundKind int

const (
	plain roundKind = iota
	observed
	traced
)

var kindNames = [...]string{"plain", "observed", "traced"}

// A workload is a closed loop of fixed-work rounds. Only round is timed.
type workload interface {
	// setup makes the inputs from the seed, builds planner and pipeline
	// state and runs the fixed warm-up rounds.
	setup() error
	// prepare builds what the next round needs (request lists, sinks).
	prepare(kind roundKind)
	// round runs the fixed work once and returns the number of ops. A
	// traced round that does more than a plain one (the planner workloads
	// replay every request layer by layer) also returns how long the part
	// that a plain round does took; 0 means all of it.
	round(kind roundKind) (ops int, part time.Duration)
	// verify checks the round's outputs against the oracles, pools the
	// round's per-op latencies (never an observed round's) and returns the
	// failed ops.
	verify(kind roundKind) int
	// latenciesMs returns the pooled per-op latencies.
	latenciesMs() []float64
	// finish runs the end-of-run oracles and returns the failed checks.
	finish() int
	// layers measures the workload's home per-layer metrics into m from
	// the spans of the traced rounds and from its probes.
	layers(spans []span, m map[string]float64)
	// digests identify the generated inputs and the planned periods.
	digests() (input, period uint64)
}

func newWorkload(cfg config, tr *tracer) workload {
	switch cfg.workload {
	case "plan_cold":
		return &planCold{cfg: cfg, tr: tr}
	case "plan_edit":
		return &planEdit{cfg: cfg, tr: tr}
	case "replay_tableII":
		return &replay{cfg: cfg, tr: tr}
	case "stream_handoff":
		return &handoff{cfg: cfg, tr: tr}
	case "rx_live":
		return &rxLive{cfg: cfg, tr: tr}
	}
	panic("bench: unknown workload " + cfg.workload)
}

// meter is what the harness reads around every round.
type meter struct {
	wall           time.Time
	cpu            time.Duration
	mallocs, bytes uint64  // cumulative heap objects and bytes allocated
	heapMB         float64 // live heap; after a forced collection this is what the program retains
	host           hostTicks
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		heapMB: float64(ms.HeapAlloc) / (1 << 20), host: readHostTicks()}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set. Each run is its own
// process, so this is the workload's own peak, not a delta.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostTicks is the kernel's account of all CPUs since boot: every tick, and
// the ticks the hypervisor gave to another guest while this one wanted to
// run. Both are 0 where /proc/stat does not exist or has no steal column.
type hostTicks struct {
	total, stolen int64
}

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var h hostTicks
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		if i < 8 { // guest time is already inside user and nice
			h.total += v
		}
		if i == 7 {
			h.stolen = v
		}
	}
	return h
}

// roundRec is what one measured round showed.
type roundRec struct {
	kind           roundKind
	ops            int
	wall           float64 // s; of the part a plain round does, when a traced round does more
	cpu            time.Duration
	mallocs, bytes uint64
	heapMB         float64 // live heap when the round started, right after a forced collection
	stolen         float64 // share of the host's CPU time the hypervisor took away during the round
	lat0, lat1     int     // the workload's pooled latencies [lat0, lat1) are this round's
}

func newRoundRec(kind roundKind, ops int, a, b meter, part time.Duration) roundRec {
	r := roundRec{kind: kind, ops: ops, wall: b.wall.Sub(a.wall).Seconds(), cpu: b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs, bytes: b.bytes - a.bytes, heapMB: a.heapMB}
	if part > 0 {
		r.wall = part.Seconds()
	}
	if ticks := b.host.total - a.host.total; ticks > 0 {
		r.stolen = float64(b.host.stolen-a.host.stolen) / float64(ticks)
	}
	return r
}

// A round during which the hypervisor took more than stolenLimit of the
// host's CPU time measured the neighbours, not the program. On the shared
// 2-vCPU host the baseline was recorded on, such bursts last seconds to
// minutes and slow a two-stage pipeline by up to 2×; rounds inside one are
// left out of every metric. At least keepRounds rounds of a kind (and one
// set-up) are always kept, the least disturbed ones, so a run inside a long
// burst still reports.
const (
	stolenLimit = 0.005
	keepRounds  = 3
)

// undisturbed returns the rounds of one kind that count: those within
// stolenLimit, or the keep least disturbed ones when fewer are.
func undisturbed(all []roundRec, kind roundKind, keep int) []roundRec {
	var of []roundRec
	for _, r := range all {
		if r.kind == kind {
			of = append(of, r)
		}
	}
	sort.SliceStable(of, func(i, j int) bool { return of[i].stolen < of[j].stolen })
	n := len(of)
	for n > keep && of[n-1].stolen > stolenLimit {
		n--
	}
	return of[:n]
}

func walls(rounds []roundRec) []float64 {
	w := make([]float64, len(rounds))
	for i, r := range rounds {
		w[i] = r.wall
	}
	return w
}

// rate is ops per round ÷ median round wall time (every round of a kind does
// the same work, so the median of the per-round rates is the same number).
func rate(rounds []roundRec) float64 {
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		rates[i] = float64(r.ops) / r.wall
	}
	return median(rates)
}

// metric is one reported value, in the shape the result line uses.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the line: what the inputs and the planned periods hash to.
	inputDigest, periodDigest uint64
}

// runWorkload sets the workload up (several times, for a repeatable
// setup_s), measures it for cfg.seconds and returns the result. Details go
// to cfg.log as they are known; the caller prints the result line.
func runWorkload(cfg config) (result, error) {
	log := cfg.log
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v W %d GOMAXPROCS %d nproc %d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.w, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	// Set-up runs setupReps times on fresh state; setup_s is the median of
	// the undisturbed ones and the last instance is the one measured.
	var wl workload
	var setups []roundRec
	var root openSpan
	for i := 0; i < cfg.size.setupReps; i++ {
		tr.reset()
		root = tr.open(openSpan{}, -1, lBench, "workload")
		wl = newWorkload(cfg, tr)
		runtime.GC() // every set-up starts from the same heap, not from its predecessor's garbage
		a := readMeter()
		sp := tr.open(root, -1, lBench, "setup")
		tr.setScope(sp)
		if err := wl.setup(); err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		tr.close(sp)
		setups = append(setups, newRoundRec(plain, 0, a, readMeter(), 0))
	}

	tr.setScope(root)
	var rounds []roundRec
	var attempted, failed int64
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	// Every fourth round is observed. The traced run also traces two rounds
	// in four; its plain rounds are the base of the tracing overhead.
	minRounds := cfg.size.minRounds
	if cfg.trace {
		minRounds = 3 // one of each kind
	}
	measured := 0.0
	for i := 0; measured < budget || i < minRounds; i++ {
		kind := plain
		switch {
		case i%4 == 1:
			kind = observed
		case cfg.trace && i%4 != 2:
			kind = traced
		}
		wl.prepare(kind)
		runtime.GC() // a round pays for its own garbage only, and starts from what the program retains
		a := readMeter()
		ops, part := wl.round(kind)
		b := readMeter()
		rec := newRoundRec(kind, ops, a, b, part)
		rec.lat0 = len(wl.latenciesMs())
		attempted += int64(ops)
		failed += int64(wl.verify(kind))
		rec.lat1 = len(wl.latenciesMs())
		rounds = append(rounds, rec)
		measured += b.wall.Sub(a.wall).Seconds()
		fmt.Fprintf(log, "round %d %s ops=%d wall_s=%.6f cpu_s=%.6f stolen=%.4f\n", i, kindNames[kind], ops, rec.wall, rec.cpu.Seconds(), rec.stolen)
	}
	failed += int64(wl.finish())
	tr.close(root)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.inputDigest, res.periodDigest = wl.digests()
	kept := [3][]roundRec{undisturbed(rounds, plain, keepRounds), undisturbed(rounds, observed, keepRounds), undisturbed(rounds, traced, keepRounds)}
	fmt.Fprintf(log, "digest input=%016x period=%016x\n", res.inputDigest, res.periodDigest)
	fmt.Fprintf(log, "rounds=%d undisturbed plain=%d observed=%d traced=%d measured_s=%.2f attempted=%d failed=%d\n",
		len(rounds), len(kept[plain]), len(kept[observed]), len(kept[traced]), measured, attempted, failed)

	if !cfg.trace {
		p := kept[plain]
		var lat, heap []float64
		var ops, mallocs, bytes uint64
		var cpu time.Duration
		all := wl.latenciesMs()
		for _, r := range p {
			lat = append(lat, all[r.lat0:r.lat1]...)
			heap = append(heap, r.heapMB)
			ops, mallocs, bytes, cpu = ops+uint64(r.ops), mallocs+r.mallocs, bytes+r.bytes, cpu+r.cpu
		}
		sort.Float64s(lat)
		vals := map[string]float64{
			"setup_s":            median(walls(undisturbed(setups, plain, 1))),
			"ops_per_s":          rate(p),
			"op_ms_p50":          percentile(lat, 50),
			"observed_ops_per_s": rate(kept[observed]),
			"cpu_ms_per_op":      cpu.Seconds() * 1e3 / float64(ops),
			"allocs_per_op":      float64(mallocs) / float64(ops),
			"alloc_kb_per_op":    float64(bytes) / 1024 / float64(ops),
			"live_heap_mb":       median(heap),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{finite(vals[d.name]), d.unit}
		}
		fmt.Fprintf(log, "detail op_ms samples=%d\n", len(lat))
		fmt.Fprintf(log, "detail setup_s runs=%v\n", walls(setups))
		fmt.Fprintf(log, "detail peak_rss_mb=%.1f\n", peakRSSMB())
		printMetrics(log, endToEnd, res.Metrics)
		return res, nil
	}

	spans, dropped := tr.collect()
	vals := map[string]float64{}
	fmt.Fprintf(log, "detail ops_per_s plain=%.6g observed=%.6g traced=%.6g\n", rate(kept[plain]), rate(kept[observed]), rate(kept[traced]))
	if t := rate(kept[traced]); t > 0 {
		vals["bench.trace_overhead_ratio"] = rate(kept[plain]) / t
	}
	vals["bench.peak_rss_mb"] = peakRSSMB()
	self := selfTimes(spans)
	total := 0.0
	for l := lBench + 1; l < numLayers; l++ {
		total += self[l]
	}
	for l := lBench + 1; l < numLayers && total > 0; l++ {
		vals["layer."+layerNames[l]+".self_share"] = self[l] / total
	}
	wl.layers(spans, vals)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{finite(vals[d.name]), d.unit}
		delete(vals, d.name)
	}
	for name := range vals {
		return result{}, fmt.Errorf("%s: metric %q is measured but not declared", cfg.workload, name)
	}
	path := filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl")
	if err := tr.writeJSONL(path, cfg.workload, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "trace %s spans=%d dropped=%d\n", path, len(spans), dropped)
	printMetrics(log, perLayer, res.Metrics)
	return res, nil
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-44s %-6s %.6g\n", d.name, d.unit, m[d.name].Value)
	}
}

// resultLine renders the result as the one-line JSON object the contract
// asks for (encoding/json writes map keys in sorted order).
func resultLine(r result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers and strings always marshals
	}
	return string(b)
}
