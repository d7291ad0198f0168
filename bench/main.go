// Command bench is the repository's benchmark: five workloads over the
// plan → predict → run chain, eight gated end-to-end metrics and a per-layer
// budget timed from outside. See README.md.
//
//	bash bench/run.sh --workload plan_cold --seed 1 --seconds 20 --trace 0   one run, as the driver makes it
//	bash bench/run.sh -seed 1 -runs 10                                       every workload, report in bench/out
//	bash bench/run.sh -compare a.json b.json                                 two reports side by side
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and end with the result line (default: run all five, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "measured time of one run")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics and bench/out/trace-<workload>.jsonl); 0: the end-to-end run")
		quick    = flag.Bool("quick", false, "test-sized inputs; the numbers mean nothing")
		out      = flag.String("out", "bench/out", "directory for reports and traces")
		runs     = flag.Int("runs", 1, "end-to-end runs per workload when running all five (seeds seed, seed+1, …)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
		spec     = flag.String("spec", "BENCHMARK.json", "metric directions and bounds for -compare")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
			break
		}
		var worse bool
		if worse, err = compareReports(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *workload == "":
		err = runAll(*seed, *seconds, *runs, *quick, *out)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload: details first, the result line last.
// An oracle failure still prints the line (correct: false) and then fails
// the command.
func runOne(name string, seed int64, seconds float64, trace, quick bool, out string) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == name
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg := config{workload: name, seed: seed, seconds: seconds, trace: trace, size: fullSize, out: out, w: hostW(), log: os.Stdout}
	if quick {
		cfg.size = quickSize
	}
	if trace {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Println(resultLine(res))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their oracle", name, res.Failed, res.Attempted)
	}
	return nil
}
