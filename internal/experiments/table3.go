package experiments

import (
	"fmt"

	"ampsched/internal/core"
	"ampsched/internal/dvbs2"
	"ampsched/internal/platform"
	"ampsched/internal/streampu"
)

// Table3Row is one task row of Table III.
type Table3Row struct {
	ID         int
	Name       string
	Replicable bool
	// Weights per platform: [platform][core type], µs.
	Weights map[string][]float64
}

// Table3 returns the embedded paper profile (the scheduling input of the
// real-world experiment).
func Table3() []Table3Row {
	plats := platform.All()
	chains := make([]*core.Chain, len(plats))
	for i, p := range plats {
		chains[i] = p.Chain()
	}
	n := chains[0].Len()
	rows := make([]Table3Row, n)
	for i := 0; i < n; i++ {
		t0 := chains[0].Task(i)
		rows[i] = Table3Row{
			ID:         i + 1,
			Name:       t0.Name,
			Replicable: t0.Replicable,
			Weights:    map[string][]float64{},
		}
		for pi, p := range plats {
			rows[i].Weights[p.Name] = chains[pi].Task(i).Weight
		}
	}
	return rows
}

// LiveProfile measures the actual latency of this repository's Go DVB-S2
// receiver tasks on the host machine, in one serial run: every virtual
// core type executes the same silicon, so one type's profile is the
// host's. It returns the measured chain ready for scheduling, together
// with the raw per-task microseconds.
func LiveProfile(p dvbs2.Params, frames int) (*core.Chain, []float64, error) {
	tx, err := dvbs2.NewTransmitter(p)
	if err != nil {
		return nil, nil, err
	}
	rx := dvbs2.NewReceiver(tx, dvbs2.NewTxStream(tx, dvbs2.DefaultChannel()))
	tasks := rx.Tasks()
	prof, err := streampu.ProfileTypes(tasks, 1, frames, 1)
	if err != nil {
		return nil, nil, err
	}
	micros := prof[0]
	weights := make([][]float64, len(tasks))
	for i := range weights {
		w := micros[i]
		if w <= 0 {
			w = 0.01 // profiling floor: never schedule a zero-weight task
		}
		// The host has one core type; model "little" with the paper's
		// average slowdown so heterogeneous scheduling stays meaningful.
		weights[i] = core.Weights(w, w*2.3)
	}
	chain, err := rx.ModelChain(weights)
	if err != nil {
		return nil, nil, err
	}
	return chain, micros, nil
}

// LiveRunResult is one row of the live experiment: chain scheduled with
// the named strategy on r virtual cores, executed on the streampu runtime
// with real DSP computation, with the measured frame rate and residual
// BER. This goes beyond the paper's latency-replay experiment: the
// pipeline does the actual signal processing.
type LiveRunResult struct {
	Solution  core.Solution
	Predicted float64 // frames/s from the schedule period
	Measured  float64 // frames/s from the wall clock
	BER       float64
	Frames    int64
}

// LiveRun executes the live experiment (see LiveRunResult) on chain, a
// profile LiveProfile took of the receiver p builds. Every row of one
// table plans from the same profile, so the rows compare.
func LiveRun(p dvbs2.Params, chain *core.Chain, strategy string, r core.Resources, runFrames int) (LiveRunResult, error) {
	sol := Run(strategy, chain, r)
	if sol.IsEmpty() {
		return LiveRunResult{}, fmt.Errorf("experiments: %s found no schedule", strategy)
	}
	tx, err := dvbs2.NewTransmitter(p)
	if err != nil {
		return LiveRunResult{}, err
	}
	rx := dvbs2.NewReceiver(tx, dvbs2.NewTxStream(tx, dvbs2.DefaultChannel()))
	pipe, err := streampu.New(rx.Tasks(), sol, streampu.Options{QueueCap: 2})
	if err != nil {
		return LiveRunResult{}, err
	}
	st, err := pipe.Run(runFrames, nil)
	if err != nil {
		return LiveRunResult{}, err
	}
	return LiveRunResult{
		Solution:  sol,
		Predicted: 1e6 / sol.Period(chain),
		Measured:  st.FPS,
		BER:       rx.Monitor.BER(),
		Frames:    rx.Monitor.Frames.Load(),
	}, nil
}
