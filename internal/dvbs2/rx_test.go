package dvbs2

import (
	"fmt"
	"testing"

	"ampsched/internal/core"
	"ampsched/internal/streampu"
)

func buildRx(t *testing.T, imp Impairments) *Receiver {
	t.Helper()
	tx, err := NewTransmitter(Test())
	if err != nil {
		t.Fatal(err)
	}
	return NewReceiver(tx, NewTxStream(tx, imp))
}

func TestReceiverChainShapeMatchesTableIII(t *testing.T) {
	rx := buildRx(t, CleanChannel())
	tasks := rx.Tasks()
	if len(tasks) != 23 {
		t.Fatalf("%d tasks, want 23", len(tasks))
	}
	// Replicability flags of Table III: τ11, τ13..τ20, τ23 replicable.
	wantRep := map[int]bool{10: true, 12: true, 13: true, 14: true, 15: true,
		16: true, 17: true, 18: true, 19: true, 22: true}
	for i, task := range tasks {
		if got := task.Replicable(); got != wantRep[i] {
			t.Errorf("τ%d (%s): replicable=%v, want %v", i+1, task.Name(), got, wantRep[i])
		}
	}
}

func TestEndToEndCleanChannel(t *testing.T) {
	rx := buildRx(t, CleanChannel())
	st, err := streampu.RunChain(rx.Tasks(), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 10 {
		t.Fatalf("processed %d frames", st.Frames)
	}
	checked := rx.Monitor.Frames.Load()
	if checked < 7 {
		t.Fatalf("only %d frames checked after lock (skipped %d)",
			checked, rx.Monitor.Skipped.Load())
	}
	if errs := rx.Monitor.BitErrors.Load(); errs != 0 {
		t.Fatalf("clean channel produced %d bit errors over %d bits (BER %.2e)",
			errs, rx.Monitor.BitsChecked.Load(), rx.Monitor.BER())
	}
}

func TestEndToEndImpairedChannel(t *testing.T) {
	rx := buildRx(t, DefaultChannel())
	st, err := streampu.RunChain(rx.Tasks(), 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 24 {
		t.Fatalf("processed %d frames", st.Frames)
	}
	checked := rx.Monitor.Frames.Load()
	if checked < 16 {
		t.Fatalf("only %d frames checked (skipped %d)", checked, rx.Monitor.Skipped.Load())
	}
	// Allow the first few post-lock frames to be dirty while loops settle;
	// the tail must be error-free ("error-free SNR zone").
	if fe := rx.Monitor.FrameErrors.Load(); fe > 6 {
		t.Fatalf("%d/%d frames had residual errors (BER %.2e, BCH failures %d, LDPC diverged %d)",
			fe, checked, rx.Monitor.BER(),
			rx.Monitor.BCHFailures.Load(), rx.Monitor.LDPCDiverged.Load())
	}
}

func TestEndToEndPipelined(t *testing.T) {
	// Run the receiver on a real multi-stage replicated schedule and
	// verify identical functional behaviour (order preservation and
	// replica cloning included).
	rx := buildRx(t, DefaultChannel())
	tasks := rx.Tasks()
	sol := core.Solution{Stages: []core.Stage{
		{Start: 0, End: 9, Cores: 1, Type: core.Big},   // front end (sequential)
		{Start: 10, End: 10, Cores: 1, Type: core.Big}, // descrambler
		{Start: 11, End: 11, Cores: 1, Type: core.Big}, // fine freq (seq)
		{Start: 12, End: 19, Cores: 3, Type: core.Big}, // replicated decode block
		{Start: 20, End: 21, Cores: 1, Type: core.Little},
		{Start: 22, End: 22, Cores: 2, Type: core.Little}, // replicated monitor
	}}
	p, err := streampu.New(tasks, sol, streampu.Options{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run(24, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 24 || st.Errored != 0 {
		t.Fatalf("stats: %+v", st)
	}
	checked := rx.Monitor.Frames.Load()
	if checked < 16 {
		t.Fatalf("only %d frames checked (skipped %d)", checked, rx.Monitor.Skipped.Load())
	}
	if fe := rx.Monitor.FrameErrors.Load(); fe > 6 {
		t.Fatalf("pipelined run had %d/%d errored frames (BER %.2e)",
			fe, checked, rx.Monitor.BER())
	}
}

func TestMonitorBERAccounting(t *testing.T) {
	var m MonitorStats
	if m.BER() != 0 {
		t.Error("BER of empty monitor should be 0")
	}
	m.BitsChecked.Store(1000)
	m.BitErrors.Store(5)
	if m.BER() != 0.005 {
		t.Errorf("BER = %v", m.BER())
	}
}

func TestModelChainFromReceiver(t *testing.T) {
	rx := buildRx(t, CleanChannel())
	weights := make([][]float64, 23)
	for i := range weights {
		weights[i] = core.Weights(float64(i+1), float64(2*(i+1)))
	}
	c, err := rx.ModelChain(weights)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 23 {
		t.Fatalf("model has %d tasks", c.Len())
	}
	// Replicability must match the task implementations.
	if c.Task(0).Replicable || !c.Task(22).Replicable {
		t.Error("replicability flags wrong in model chain")
	}
	if _, err := rx.ModelChain(weights[:5]); err == nil {
		t.Error("short weight vector accepted")
	}
}

func TestReceiverDiagnosticsPropagate(t *testing.T) {
	rx := buildRx(t, CleanChannel())
	tasks := rx.Tasks()
	var lastPayload *FramePayload
	probe := &streampu.FuncTask{TaskName: "probe", Rep: false,
		Fn: func(w *streampu.Worker, f *streampu.Frame) error {
			lastPayload = f.Data.(*FramePayload)
			return nil
		}}
	all := append(append([]streampu.Task{}, tasks...), probe)
	if _, err := streampu.RunChain(all, 8, nil); err != nil {
		t.Fatal(err)
	}
	if lastPayload == nil {
		t.Fatal("probe never ran")
	}
	if lastPayload.Skipped {
		t.Fatal("last frame still skipped — no lock after 8 frames")
	}
	if !lastPayload.BCHOK || !lastPayload.LDPCConverged {
		t.Errorf("decode diagnostics: BCHOK=%v LDPCConverged=%v (iters %d)",
			lastPayload.BCHOK, lastPayload.LDPCConverged, lastPayload.LDPCIters)
	}
	fmt.Println("diag: counter", lastPayload.Counter, "iters", lastPayload.LDPCIters,
		"bch corrected", lastPayload.BCHCorrected, "noiseVar", lastPayload.NoiseVar)
}

func TestReceiverSteadyStateAllocs(t *testing.T) {
	rx := buildRx(t, DefaultChannel())
	tasks := rx.Tasks()
	// Past frame lock, with the stream buffers of the sequential tasks
	// grown to their working size.
	if _, err := streampu.RunChain(tasks, 30, nil); err != nil {
		t.Fatal(err)
	}
	locked := rx.Monitor.Frames.Load()
	// Every RunChain builds a pipeline and the one payload its frame
	// recycles; what it allocates beyond that would grow with the frames.
	perRun := func(frames int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := streampu.RunChain(tasks, frames, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	// One allocation per frame would put 50 between the two; the runtime's
	// own odd allocation (a goroutine, a stream buffer growing once more)
	// puts one or two.
	short, long := perRun(50), perRun(100)
	if perFrame := (long - short) / 50; perFrame > 0.1 || perFrame < -0.1 {
		t.Errorf("%.0f allocations for 50 frames, %.0f for 100: %.2f per steady-state frame, want 0", short, long, perFrame)
	}
	if got := rx.Monitor.Frames.Load() - locked; got != 6*(50+100) {
		t.Fatalf("measured %d decoded frames of %d: the receiver was not in steady state", got, 6*(50+100))
	}
}
