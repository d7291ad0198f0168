package dvbs2

import (
	"ampsched/internal/streampu"
)

// The transmitter as a streaming task chain. The paper schedules the
// DVB-S2 *receiver*; its open-source workload also ships the transmitter
// as a StreamPU sequence. TxChain exposes the same decomposition here —
// a 10-task chain (source, BB scrambler, BCH, LDPC, interleaver, QPSK,
// PLH framer, PL scrambler, shaping filter, radio send) that can be
// profiled, scheduled and executed on the streampu runtime exactly like
// the receiver.

// TxPayload is the per-frame data of the transmit chain. Each step sizes
// the buffer it writes and overwrites all of it, so a payload recycled by
// streampu.FramePool (or reused frame after frame by the monolithic
// Transmitter) allocates on its first frame only.
type TxPayload struct {
	Counter uint32
	Bits    []byte       // information bits (K_bch), then scrambled
	BCHCW   []byte       // BCH codeword (K_ldpc)
	LDPCCW  []byte       // LDPC codeword (N_ldpc)
	Inter   []byte       // interleaved codeword
	Payload []complex128 // payload symbols
	Frame   []complex128 // PLFRAME symbols (header + scrambled payload)
	Samples []complex128 // pulse-shaped output samples
}

// txSteps is the encode path, one body per step: Transmitter.encodeNext
// runs the steps back to back on its own payload, TxChain.Tasks wraps
// each as a pipeline task. Every replicable step is a pure function of
// the payload and the (read-only) codecs; the source is sequential by
// contract and the shaping filter carries its delay line across frames.
var txSteps = []struct {
	name string
	rep  bool
	fn   func(t *Transmitter, pl *TxPayload)
}{
	{"Source – generate", false, func(t *Transmitter, pl *TxPayload) {
		pl.Bits = sized(pl.Bits, t.p.KBch())
		fillBBFrame(pl.Bits, pl.Counter)
	}},
	{"Scrambler Binary – scramble", true, func(t *Transmitter, pl *TxPayload) {
		BBScramble(pl.Bits)
	}},
	{"Encoder BCH – encode", true, func(t *Transmitter, pl *TxPayload) {
		pl.BCHCW = sized(pl.BCHCW, t.bch.N())
		t.bch.encodeInto(pl.BCHCW, pl.Bits)
	}},
	{"Encoder LDPC – encode", true, func(t *Transmitter, pl *TxPayload) {
		pl.LDPCCW = sized(pl.LDPCCW, t.ldpc.N())
		t.ldpc.encodeInto(pl.LDPCCW, pl.BCHCW)
	}},
	{"Interleaver – interleave", true, func(t *Transmitter, pl *TxPayload) {
		pl.Inter = t.il.Interleave(pl.LDPCCW, sized(pl.Inter, len(pl.LDPCCW)))
	}},
	{"Modem QPSK – modulate", true, func(t *Transmitter, pl *TxPayload) {
		pl.Payload = sized(pl.Payload, t.p.PayloadSymbols())
		qpskModulateInto(pl.Payload, pl.Inter)
	}},
	{"Framer PLH – insert", true, func(t *Transmitter, pl *TxPayload) {
		pl.Frame = append(append(pl.Frame[:0], t.header...), pl.Payload...)
	}},
	{"Scrambler Symbol – scramble", true, func(t *Transmitter, pl *TxPayload) {
		t.pls.Scramble(pl.Frame[t.p.HeaderSymbols():])
	}},
	{"Filter Shaping – filter", false, func(t *Transmitter, pl *TxPayload) {
		pl.Samples = t.shaper.Process(pl.Frame, sized(pl.Samples, t.p.FrameSamples()))
	}},
}

// TxChain is the transmitter decomposed into pipeline tasks.
type TxChain struct {
	tx *Transmitter

	// Emit receives each frame's samples in order; nil discards them. The
	// slice belongs to the frame and is overwritten when the frame is
	// recycled: a consumer that keeps samples copies them.
	Emit func(samples []complex128)

	SentFrames int64
	SentBits   int64
}

// NewTxChain builds the transmit chain for the given parameters.
func NewTxChain(p Params, emit func([]complex128)) (*TxChain, error) {
	tx, err := NewTransmitter(p)
	if err != nil {
		return nil, err
	}
	return &TxChain{tx: tx, Emit: emit}, nil
}

func txPayloadOf(f *streampu.Frame) *TxPayload {
	if f.Data == nil {
		f.Data = &TxPayload{}
	}
	return f.Data.(*TxPayload)
}

// Tasks returns the 10-task transmit chain. The source derives each
// frame's content from the pipeline sequence number, so the chain's
// replicable tasks really are stateless; only the source counter
// assignment, the shaping filter (FIR state) and the radio sink are
// sequential.
func (t *TxChain) Tasks() []streampu.Task {
	tasks := make([]streampu.Task, 0, len(txSteps)+1)
	for _, step := range txSteps {
		fn := step.fn
		tasks = append(tasks, &streampu.FuncTask{TaskName: step.name, Rep: step.rep,
			Fn: func(w *streampu.Worker, f *streampu.Frame) error {
				pl := txPayloadOf(f)
				// A frame's number is its pipeline sequence number; the
				// source is the step that reads it.
				pl.Counter = uint32(f.Seq)
				fn(t.tx, pl)
				return nil
			}})
	}
	return append(tasks, &streampu.FuncTask{TaskName: "Radio – send", Rep: false,
		Fn: func(w *streampu.Worker, f *streampu.Frame) error {
			t.SentFrames++
			t.SentBits += int64(t.tx.p.KBch())
			if t.Emit != nil {
				t.Emit(txPayloadOf(f).Samples)
			}
			return nil
		}})
}
