package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// host is where a report was measured. Two reports compare only when their
// hosts agree: a parallel workload must never be gated against a baseline
// with fewer cores.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: hostW(), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	return h
}

// series is one end-to-end metric of one workload over the runs of a report.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

func newSeries(unit string, values []float64) series {
	q1, q2, q3 := quartiles(values)
	return series{Unit: unit, Values: values, Median: q2, Q1: q1, Q3: q3, N: len(values)}
}

func (s series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

type workloadReport struct {
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	FailShare    float64           `json:"fail_share"`
	DigestInput  string            `json:"digest_input"`  // of the first run's seed
	DigestPeriod string            `json:"digest_period"` // of the first run's seed
	EndToEnd     map[string]series `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer"`
}

type report struct {
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Runs      int                       `json:"runs"`
	Claim     *string                   `json:"claim"` // a benchmark-defining report claims nothing
	Workloads map[string]workloadReport `json:"workloads"`
}

// child runs this program again for one workload and returns its result and
// its digest line. Each run is its own process so that peak_rss_mb, the
// heap's history and the scheduler's state start fresh, exactly as when the
// driver runs the workloads one at a time.
func child(w io.Writer, args ...string) (result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, "", err
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last, digest string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "digest ") {
			digest = last
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, "", fmt.Errorf("%v: no result line (%v)", args, runErr)
	}
	return res, digest, runErr
}

// runAll runs every workload: runs end-to-end runs (seeds seed, seed+1, …)
// and one traced run each, one process at a time, then prints the report
// and writes it to out/report-seed<seed>.json.
func runAll(seed int64, seconds float64, runs int, quick bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rep := report{Host: thisHost(), Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]workloadReport{}}
	var firstErr error
	for _, name := range workloadNames {
		wr := workloadReport{EndToEnd: map[string]series{}, PerLayer: map[string]metric{}}
		values := map[string][]float64{}
		for r := 0; r <= runs; r++ {
			traced := r == runs
			args := []string{"--workload", name, "--seed", fmt.Sprint(seed + int64(r%runs)), "--seconds", fmt.Sprint(seconds), "--out", out, "--trace", "0"}
			if traced {
				args[len(args)-1] = "1"
			}
			if quick {
				args = append(args, "-quick")
			}
			res, digest, err := child(os.Stdout, args...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if r == 0 {
				fmt.Sscanf(digest, "digest input=%s period=%s", &wr.DigestInput, &wr.DigestPeriod)
			}
			for n, m := range res.Metrics {
				if traced {
					wr.PerLayer[n] = m
				} else {
					values[n] = append(values[n], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = newSeries(d.unit, values[d.name])
		}
		if wr.Attempted > 0 {
			wr.FailShare = float64(wr.Failed) / float64(wr.Attempted)
		}
		rep.Workloads[name] = wr
	}
	printReport(os.Stdout, rep)
	path := filepath.Join(out, fmt.Sprintf("report-seed%d.json", seed))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("report", path)
	return firstErr
}

func printReport(w io.Writer, rep report) {
	h := rep.Host
	fmt.Fprintf(w, "\nhost nproc=%d GOMAXPROCS=%d W=%d %s commit=%s seed=%d seconds=%g runs=%d\n",
		h.NProc, h.GOMAXPROCS, h.W, h.Go, h.Commit, rep.Seed, rep.Seconds, rep.Runs)
	fmt.Fprintf(w, "\n%-16s %-20s %-6s %12s %12s %12s %3s %8s\n", "workload", "end-to-end metric", "unit", "median", "q1", "q3", "n", "spread")
	for _, name := range workloadNames {
		wr := rep.Workloads[name]
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			fmt.Fprintf(w, "%-16s %-20s %-6s %12.6g %12.6g %12.6g %3d %8.4f\n", name, d.name, s.Unit, s.Median, s.Q1, s.Q3, s.N, s.spread())
		}
		fmt.Fprintf(w, "%-16s %-20s %-6s %12.6g %25s %d/%d\n", name, "fail_share", "ratio", wr.FailShare, "failed/attempted", wr.Failed, wr.Attempted)
	}
	fmt.Fprintf(w, "\n%-44s %-6s", "per-layer metric (traced run)", "unit")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %14s", name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-44s %-6s", d.name, d.unit)
		for _, name := range workloadNames {
			if v := rep.Workloads[name].PerLayer[d.name].Value; v != 0 {
				fmt.Fprintf(w, " %14.6g", v)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per workload and end-to-end metric, both medians
// with their quartiles, the ratio b÷a and a verdict against the metric's
// bound, and reports whether any metric got worse. b is the change, a its
// base.
func compareReports(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	var spec benchSpec
	var a, b report
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.W != b.Host.W {
		return false, fmt.Errorf("refusing to compare: %s was measured on nproc=%d GOMAXPROCS=%d W=%d, %s on nproc=%d GOMAXPROCS=%d W=%d",
			aPath, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.W, bPath, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.W)
	}
	fmt.Fprintf(w, "a = %s (commit %s, n=%d)\nb = %s (commit %s, n=%d)\n\n", aPath, a.Host.Commit, a.Runs, bPath, b.Host.Commit, b.Runs)
	fmt.Fprintf(w, "%-16s %-20s %-6s %34s %34s %16s %7s  %s\n", "workload", "metric", "unit", "a median [q1, q3]", "b median [q1, q3]", "b÷a (base a)", "bound", "verdict")
	for _, name := range workloadNames {
		for _, m := range spec.EndToEnd {
			sa, sb := a.Workloads[name].EndToEnd[m.Name], b.Workloads[name].EndToEnd[m.Name]
			verdict := verdictOf(sa, sb, m.Better == "higher", m.Bound)
			worse = worse || verdict == "worse"
			ratio := math.NaN()
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			fmt.Fprintf(w, "%-16s %-20s %-6s %34s %34s %16.4f %7.2f  %s\n", name, m.Name, sa.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Median, sa.Q1, sa.Q3), fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Median, sb.Q1, sb.Q3), ratio, m.Bound, verdict)
		}
		fa, fb := a.Workloads[name], b.Workloads[name]
		verdict := "same"
		if fb.FailShare > fa.FailShare {
			verdict, worse = "worse", true // any increase is a regression
		}
		fmt.Fprintf(w, "%-16s %-20s %-6s %34.6g %34.6g %16s %7d  %s\n", name, "fail_share", "ratio", fa.FailShare, fb.FailShare, "", 0, verdict)
	}
	return worse, nil
}

// verdictOf judges b against a: worse when b's median is worse than a's by
// more than bound; unresolved when either side's interquartile spread
// exceeds the bound, unless every run of b beats every run of a; better
// when b's median is better by more than bound; same otherwise.
func verdictOf(a, b series, higherIsBetter bool, bound float64) string {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return "missing"
	}
	gain := (b.Median - a.Median) / math.Abs(a.Median) // > 0 is better once signed
	if !higherIsBetter {
		gain = -gain
	}
	if gain < -bound {
		return "worse"
	}
	if a.spread() > bound || b.spread() > bound {
		if allBetter(a.Values, b.Values, higherIsBetter) {
			return "better"
		}
		return "unresolved"
	}
	if gain > bound {
		return "better"
	}
	return "same"
}

func allBetter(a, b []float64, higherIsBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higherIsBetter && y <= x) || (!higherIsBetter && y >= x) {
				return false
			}
		}
	}
	return true
}
