package dvbs2

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ampsched/internal/core"
	"ampsched/internal/streampu"
)

// FramePayload is the data a frame carries through the receiver chain.
//
// Payloads are recycled with their frames (streampu.FramePool keeps
// Frame.Data), and every buffer below is reused: the one task that owns a
// buffer sizes it and overwrites all of it on every frame, later tasks
// only work on it in place, so nothing of the previous frame shows and a
// steady-state frame allocates nothing. On a Skipped frame the buffers
// from Aligned down are stale and must not be read.
type FramePayload struct {
	Samples   []complex128 // τ1: oversampled front-end chunk (FrameSamples); τ2, τ3 in place
	partial   []complex128 // τ4: part-1 partial convolution
	Filtered  []complex128 // τ5: matched-filter output
	timed     []complex128 // τ6: timing-recovered symbols, a variable number per chunk
	Symbols   []complex128 // τ7: exactly FrameSymbols of them; τ8 in place
	Aligned   []complex128 // τ10: frame-aligned PLFRAME symbols; τ11–τ13 in place
	Payload   []complex128 // τ14: the payload symbols of Aligned (a view, not a copy)
	LLRs      []float64    // τ16
	LLRsDeint []float64    // τ17
	LDPCBits  []byte       // τ18: hard decisions (K_ldpc); τ19 corrects them in place
	Bits      []byte       // τ19: decoded information bits (K_bch); τ20 in place
	RefBits   []byte       // τ22

	NoiseVar      float64
	SyncOffset    int
	Locked        bool
	Skipped       bool // frame emitted before frame lock; carries no data
	LDPCIters     int
	LDPCConverged bool
	BCHCorrected  int
	BCHOK         bool
	Counter       uint32
	BitErrors     int
}

// MonitorStats aggregates receiver-side quality counters. The monitor
// task is replicable, so the counters are atomics shared by its clones.
type MonitorStats struct {
	Frames       atomic.Int64 // frames checked (post-lock)
	Skipped      atomic.Int64 // frames before lock
	BitErrors    atomic.Int64
	FrameErrors  atomic.Int64 // frames with ≥1 residual bit error
	BCHFailures  atomic.Int64
	LDPCDiverged atomic.Int64
	BitsChecked  atomic.Int64
}

// BER returns the residual bit-error rate seen by the monitor.
func (m *MonitorStats) BER() float64 {
	b := m.BitsChecked.Load()
	if b == 0 {
		return 0
	}
	return float64(m.BitErrors.Load()) / float64(b)
}

// Receiver owns the DVB-S2 receive chain: 23 tasks mirroring Table III,
// ready to run on the streampu runtime.
type Receiver struct {
	p      Params
	stream *TxStream
	mu     sync.Mutex // guards stream (radio task is sequential, but belt and braces)

	bch    *BCH
	ldpc   *LDPC
	il     *Interleaver
	pls    *PLScrambler
	header []complex128

	agc1        *AGC
	coarse      *CoarseFreqSync
	mf1         *FIR
	mf2         *FIR
	tim         *GardnerSync
	extractFIFO []complex128
	fsearch     *FrameSearcher
	fextract    *FrameExtractor
	agc2        *AGC
	fine        *FineFreqSync

	Monitor    MonitorStats
	SinkFrames atomic.Int64
	SinkBits   atomic.Int64
}

// NewReceiver builds the receive chain fed by the given stream. The
// transmitter provides the shared codecs and known header.
func NewReceiver(tx *Transmitter, stream *TxStream) *Receiver {
	p := tx.p
	bch, ldpc, il, pls := tx.Codecs()
	taps := RRCTaps(p.RollOff, p.FilterSpan, p.SPS)
	half := len(taps) / 2
	// The matched filter is split across two pipeline tasks by splitting
	// the tap set: part 1 convolves the first half of the taps, part 2
	// the (delayed) second half, and their outputs sum. Each part owns an
	// independent delay line over the same input stream, so the split is
	// safe under pipelining. The zeros that delay part 2 cost nothing: FIR
	// turns leading zero taps into an offset of its window.
	taps1 := taps[:half]
	taps2 := make([]float64, len(taps))
	copy(taps2[half:], taps[half:])
	r := &Receiver{
		p: p, stream: stream,
		bch: bch, ldpc: ldpc, il: il, pls: pls,
		header:   tx.Header(),
		agc1:     NewAGC(1),
		coarse:   NewCoarseFreqSync(p.SPS),
		mf1:      NewFIR(taps1),
		mf2:      NewFIR(taps2),
		tim:      NewGardnerSync(p.SPS),
		fsearch:  NewFrameSearcher(tx.Header()[:p.SOFLen], p.FrameSymbols()),
		fextract: NewFrameExtractor(p.FrameSymbols()),
		agc2:     NewAGC(1),
		fine:     NewFineFreqSync(tx.Header()),
	}
	return r
}

func payloadOf(f *streampu.Frame) *FramePayload {
	if f.Data == nil {
		f.Data = &FramePayload{}
	}
	return f.Data.(*FramePayload)
}

// sized returns s with length n, on its old backing array when that is
// large enough. The contents are unspecified: the caller overwrites them.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// seqTask builds a non-replicable task.
func seqTask(name string, fn func(pl *FramePayload) error) streampu.Task {
	return &streampu.FuncTask{TaskName: name, Rep: false, Fn: func(w *streampu.Worker, f *streampu.Frame) error {
		return fn(payloadOf(f))
	}}
}

// repTask builds a replicable task.
func repTask(name string, fn func(pl *FramePayload) error) streampu.Task {
	return &streampu.FuncTask{TaskName: name, Rep: true, Fn: func(w *streampu.Worker, f *streampu.Frame) error {
		return fn(payloadOf(f))
	}}
}

// Tasks returns the 23-task receive chain in Table III's order with the
// published replicability flags.
func (r *Receiver) Tasks() []streampu.Task {
	p := r.p
	H := p.HeaderSymbols()
	tasks := []streampu.Task{
		seqTask("Radio – receive", func(pl *FramePayload) error { // τ1
			pl.Samples = sized(pl.Samples, p.FrameSamples())
			r.mu.Lock()
			r.stream.Read(pl.Samples)
			r.mu.Unlock()
			return nil
		}),
		seqTask("Multiplier AGC – imultiply", func(pl *FramePayload) error { // τ2
			r.agc1.Process(pl.Samples)
			return nil
		}),
		seqTask("Sync. Freq. Coarse – synchronize", func(pl *FramePayload) error { // τ3
			r.coarse.Process(pl.Samples)
			return nil
		}),
		seqTask("Filter Matched – filter (part 1)", func(pl *FramePayload) error { // τ4
			pl.partial = r.mf1.Process(pl.Samples, sized(pl.partial, len(pl.Samples)))
			return nil
		}),
		seqTask("Filter Matched – filter (part 2)", func(pl *FramePayload) error { // τ5
			pl.Filtered = r.mf2.Process(pl.Samples, sized(pl.Filtered, len(pl.Samples)))
			for i := range pl.Filtered {
				pl.Filtered[i] += pl.partial[i]
			}
			return nil
		}),
		seqTask("Sync. Timing – synchronize", func(pl *FramePayload) error { // τ6
			pl.timed = r.tim.Process(pl.Filtered, pl.timed[:0])
			return nil
		}),
		seqTask("Sync. Timing – extract", func(pl *FramePayload) error { // τ7
			// Regularize the variable-size timing output to exactly one
			// frame of symbols per chunk (zero-padded during startup).
			r.extractFIFO = append(r.extractFIFO, pl.timed...)
			n := p.FrameSymbols()
			pl.Symbols = sized(pl.Symbols, n)
			// Only consume whole frames: while the timing loop warms up
			// the chunk stays all-zero and the buffered symbols surface a
			// chunk later, keeping the symbol stream contiguous.
			if len(r.extractFIFO) >= n {
				copy(pl.Symbols, r.extractFIFO[:n])
				r.extractFIFO = append(r.extractFIFO[:0], r.extractFIFO[n:]...)
			} else {
				clear(pl.Symbols)
			}
			return nil
		}),
		seqTask("Multiplier AGC – imultiply (2)", func(pl *FramePayload) error { // τ8
			r.agc2.Process(pl.Symbols)
			return nil
		}),
		seqTask("Sync. Frame – synchronize (part 1)", func(pl *FramePayload) error { // τ9
			r.fsearch.Search(pl.Symbols)
			pl.SyncOffset = r.fsearch.Offset()
			pl.Locked = r.fsearch.Locked()
			return nil
		}),
		seqTask("Sync. Frame – synchronize (part 2)", func(pl *FramePayload) error { // τ10
			pl.Aligned = sized(pl.Aligned, p.FrameSymbols())
			// Assigned, not accumulated: frames recycle their payloads
			// (see streampu.FramePool), so a sticky flag would mark every
			// frame that reuses this allocation as skipped.
			pl.Skipped = !r.fextract.ExtractInto(pl.Aligned, pl.Symbols, pl.SyncOffset, pl.Locked)
			return nil
		}),
		repTask("Scrambler Symbol – descramble", func(pl *FramePayload) error { // τ11
			if pl.Skipped {
				return nil
			}
			r.pls.Descramble(pl.Aligned[H:])
			return nil
		}),
		seqTask("Sync. Freq. Fine L&R – synchronize", func(pl *FramePayload) error { // τ12
			if pl.Skipped {
				return nil
			}
			r.fine.Process(pl.Aligned)
			return nil
		}),
		repTask("Sync. Freq. Fine P/F – synchronize", func(pl *FramePayload) error { // τ13
			if pl.Skipped {
				return nil
			}
			// Blind per-frame frequency trim over the whole frame (the
			// header-based L&R leaves a small per-frame residual), then
			// data-aided constant-phase correction. Both are pure
			// functions of the frame: the task stays replicable.
			DerotateRamp(pl.Aligned, Pow4FreqEstimate(pl.Aligned, 16))
			phi := PhaseEstimate(pl.Aligned[:H], r.header)
			Derotate(pl.Aligned, phi)
			return nil
		}),
		repTask("Framer PLH – remove", func(pl *FramePayload) error { // τ14
			if pl.Skipped {
				return nil
			}
			pl.Payload = pl.Aligned[H:]
			return nil
		}),
		repTask("Noise Estimator – estimate", func(pl *FramePayload) error { // τ15
			if pl.Skipped {
				return nil
			}
			pl.NoiseVar = EstimateNoise(pl.Payload)
			return nil
		}),
		repTask("Modem QPSK – demodulate", func(pl *FramePayload) error { // τ16
			if pl.Skipped {
				return nil
			}
			pl.LLRs = QPSKDemodulate(pl.Payload, pl.NoiseVar, sized(pl.LLRs, 2*len(pl.Payload)))
			return nil
		}),
		repTask("Interleaver – deinterleave", func(pl *FramePayload) error { // τ17
			if pl.Skipped {
				return nil
			}
			pl.LLRsDeint = r.il.DeinterleaveLLR(pl.LLRs, sized(pl.LLRsDeint, len(pl.LLRs)))
			return nil
		}),
		r.newLDPCTask(), // τ18, clonable per replica
		repTask("Decoder BCH – decode HIHO", func(pl *FramePayload) error { // τ19
			if pl.Skipped {
				return nil
			}
			info, corrected, ok := r.bch.Decode(pl.LDPCBits[:r.bch.N()])
			pl.Bits = append(pl.Bits[:0], info...)
			pl.BCHCorrected = corrected
			pl.BCHOK = ok
			return nil
		}),
		repTask("Scrambler Binary – descramble", func(pl *FramePayload) error { // τ20
			if pl.Skipped {
				return nil
			}
			BBScramble(pl.Bits)
			return nil
		}),
		seqTask("Sink Binary File – send", func(pl *FramePayload) error { // τ21
			if pl.Skipped {
				return nil
			}
			r.SinkFrames.Add(1)
			r.SinkBits.Add(int64(len(pl.Bits)))
			return nil
		}),
		seqTask("Source – generate", func(pl *FramePayload) error { // τ22
			if pl.Skipped {
				return nil
			}
			pl.Counter = DecodeCounter(pl.Bits)
			pl.RefBits = sized(pl.RefBits, p.KBch())
			fillBBFrame(pl.RefBits, pl.Counter)
			return nil
		}),
		repTask("Monitor – check errors", func(pl *FramePayload) error { // τ23
			if pl.Skipped {
				r.Monitor.Skipped.Add(1)
				return nil
			}
			pl.BitErrors = CountBitErrors(pl.Bits, pl.RefBits)
			r.Monitor.Frames.Add(1)
			r.Monitor.BitsChecked.Add(int64(len(pl.Bits)))
			r.Monitor.BitErrors.Add(int64(pl.BitErrors))
			if pl.BitErrors > 0 {
				r.Monitor.FrameErrors.Add(1)
			}
			if !pl.BCHOK {
				r.Monitor.BCHFailures.Add(1)
			}
			if !pl.LDPCConverged {
				r.Monitor.LDPCDiverged.Add(1)
			}
			return nil
		}),
	}
	if len(tasks) != 23 {
		panic(fmt.Sprintf("dvbs2: receiver has %d tasks, want 23", len(tasks)))
	}
	return tasks
}

// ldpcTask wraps a per-replica LDPC decoder (clonable scratch).
type ldpcTask struct {
	r   *Receiver
	dec *Decoder
}

func (r *Receiver) newLDPCTask() streampu.Task {
	return &ldpcTask{r: r, dec: r.ldpc.NewDecoder()}
}

func (t *ldpcTask) Name() string     { return "Decoder LDPC – decode SIHO" }
func (t *ldpcTask) Replicable() bool { return true }
func (t *ldpcTask) Clone() streampu.Task {
	return &ldpcTask{r: t.r, dec: t.r.ldpc.NewDecoder()}
}

func (t *ldpcTask) Process(w *streampu.Worker, f *streampu.Frame) error {
	pl := payloadOf(f)
	if pl.Skipped {
		return nil
	}
	hard, res := t.dec.Decode(pl.LLRsDeint)
	pl.LDPCBits = append(pl.LDPCBits[:0], hard[:t.r.ldpc.K()]...)
	pl.LDPCIters = res.Iterations
	pl.LDPCConverged = res.Converged
	return nil
}

// ModelChain returns a scheduling model of this receiver with the given
// per-task weights (e.g. from live profiling); replicability flags follow
// the implementation (which matches Table III).
func (r *Receiver) ModelChain(weights [][]float64) (*core.Chain, error) {
	tasks := r.Tasks()
	if len(weights) != len(tasks) {
		return nil, fmt.Errorf("dvbs2: %d weights for %d tasks", len(weights), len(tasks))
	}
	return streampu.ModelChain(tasks, func(i int, t streampu.Task) []float64 {
		return weights[i]
	})
}
