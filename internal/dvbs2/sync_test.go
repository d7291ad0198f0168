package dvbs2

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ampsched/internal/streampu"
)

func TestAGCNormalizesRMS(t *testing.T) {
	a := NewAGC(1)
	rng := rand.New(rand.NewSource(1))
	var rms float64
	for block := 0; block < 6; block++ {
		x := make([]complex128, 512)
		for i := range x {
			x[i] = complex(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
		}
		a.Process(x)
		sum := 0.0
		for _, v := range x {
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
		rms = math.Sqrt(sum / float64(len(x)))
	}
	if math.Abs(rms-1) > 0.1 {
		t.Errorf("RMS after AGC = %v, want ≈1", rms)
	}
	if g := a.Process(nil); g != 1 {
		t.Errorf("empty block gain = %v", g)
	}
}

func TestCoarseFreqSyncTracksCFO(t *testing.T) {
	// Pure QPSK symbol stream (1 sps view with lag 1) rotated by a known
	// CFO: the 4th-power estimator must converge near it.
	rng := rand.New(rand.NewSource(2))
	c := NewCoarseFreqSync(1)
	cfo := 3e-4
	phase := 0.0
	for block := 0; block < 40; block++ {
		x := make([]complex128, 512)
		for i := range x {
			s := QPSKModulate([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0]
			x[i] = s * cmplx.Exp(complex(0, phase))
			phase += 2 * math.Pi * cfo
		}
		c.Process(x)
	}
	if got := c.fHat; math.Abs(got-cfo) > cfo/2 {
		t.Errorf("coarse CFO estimate %v, want ≈%v", got, cfo)
	}
}

func TestGardnerRecoversFractionalDelay(t *testing.T) {
	// Shape a known QPSK stream at 2 sps, delay it fractionally, and
	// check Gardner's recovered symbols against the sent ones.
	p := Test()
	rng := rand.New(rand.NewSource(3))
	n := 4000
	syms := make([]complex128, n)
	for i := range syms {
		syms[i] = QPSKModulate([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0]
	}
	shaper := NewFIR(RRCTaps(p.RollOff, p.FilterSpan, p.SPS))
	up := Upsample(syms, p.SPS, nil)
	shaped := shaper.Process(up, nil)
	frac := NewFIR(fracDelayTaps(0.4))
	delayed := frac.Process(shaped, nil)
	mf := NewFIR(RRCTaps(p.RollOff, p.FilterSpan, p.SPS))
	filtered := mf.Process(delayed, nil)

	g := NewGardnerSync(p.SPS)
	var out []complex128
	chunk := 512
	for i := 0; i+chunk <= len(filtered); i += chunk {
		out = g.Process(filtered[i:i+chunk], out)
	}
	if len(out) < n/2 {
		t.Fatalf("gardner produced %d symbols", len(out))
	}
	// After convergence the recovered symbols must match the sent stream
	// at some constant lag, up to a constant phase (none here). Search
	// the lag with the best match over the tail.
	tail := out[len(out)-500:]
	bestErr := math.Inf(1)
	// out[o] corresponds to syms[o - D] where D is the cascaded group
	// delay in symbols; search plausible lags.
	for lag := 0; lag < 60; lag++ {
		startSym := len(out) - 500 - lag
		if startSym < 0 {
			break
		}
		e := 0.0
		for i := 0; i < 500; i++ {
			e += cmplx.Abs(tail[i] - syms[startSym+i])
		}
		if e/500 < bestErr {
			bestErr = e / 500
		}
	}
	if bestErr > 0.15 {
		t.Errorf("gardner tail mismatch %.3f (no lag matches the sent symbols)", bestErr)
	}
}

func TestFrameSearcherLocksAtKnownOffset(t *testing.T) {
	p := Test()
	header := PLHeader(p.SOFLen, p.PLSCLen)
	F := p.FrameSymbols()
	rng := rand.New(rand.NewSource(4))
	mkFrame := func() []complex128 {
		f := append([]complex128(nil), header...)
		for len(f) < F {
			f = append(f, QPSKModulate([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0])
		}
		return f
	}
	shift := 137
	stream := make([]complex128, shift)
	for i := range stream {
		stream[i] = QPSKModulate([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0]
	}
	for k := 0; k < 5; k++ {
		stream = append(stream, mkFrame()...)
	}
	fs := NewFrameSearcher(header[:p.SOFLen], F)
	fe := NewFrameExtractor(F)
	var aligned [][]complex128
	for i := 0; i+F <= len(stream); i += F {
		chunk := stream[i : i+F]
		fs.Search(chunk)
		if fr := fe.Extract(chunk, fs.Offset(), fs.Locked()); fr != nil {
			aligned = append(aligned, fr)
		}
	}
	if !fs.Locked() {
		t.Fatal("searcher never locked")
	}
	if got := fs.Offset(); got != shift%F {
		t.Fatalf("offset = %d, want %d", got, shift%F)
	}
	if len(aligned) < 3 {
		t.Fatalf("extracted %d frames", len(aligned))
	}
	for k, fr := range aligned {
		for i := 0; i < p.SOFLen; i++ {
			if cmplx.Abs(fr[i]-header[i]) > 1e-9 {
				t.Fatalf("aligned frame %d misaligned at symbol %d", k, i)
			}
		}
	}
}

func TestFrameSearcherIgnoresWeakCorrelation(t *testing.T) {
	p := Test()
	header := PLHeader(p.SOFLen, p.PLSCLen)
	fs := NewFrameSearcher(header[:p.SOFLen], p.FrameSymbols())
	// Feed zeros: no lock may be declared.
	for i := 0; i < 4; i++ {
		fs.Search(make([]complex128, p.FrameSymbols()))
	}
	if fs.Locked() {
		t.Error("locked onto an all-zero stream")
	}
}

func TestFineFreqSyncLuiseReggiannini(t *testing.T) {
	p := Test()
	header := PLHeader(p.SOFLen, p.PLSCLen)
	rng := rand.New(rand.NewSource(5))
	for _, cfo := range []float64{0, 1e-4, -2.5e-4, 5e-4} {
		f := NewFineFreqSync(header)
		f.Alpha = 1 // test the raw estimator without cross-frame smoothing
		frame := make([]complex128, p.FrameSymbols())
		copy(frame, header)
		for i := len(header); i < len(frame); i++ {
			frame[i] = QPSKModulate([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0]
		}
		for i := range frame {
			frame[i] *= cmplx.Exp(complex(0, 2*math.Pi*cfo*float64(i)+0.3))
		}
		f.Process(frame)
		if got := f.fHat; math.Abs(got-cfo) > 2e-5 {
			t.Errorf("CFO %v: estimate %v (err %.2e)", cfo, got, math.Abs(got-cfo))
		}
		// After derotation only a constant phase remains on the header.
		phi := PhaseEstimate(frame[:len(header)], header)
		Derotate(frame, phi)
		for i := 0; i < len(header); i++ {
			if cmplx.Abs(frame[i]-header[i]) > 0.02 {
				t.Fatalf("CFO %v: header symbol %d off by %v", cfo, i,
					cmplx.Abs(frame[i]-header[i]))
			}
		}
	}
}

func TestPhaseEstimateAndDerotate(t *testing.T) {
	header := PLHeader(26, 64)
	frame := append([]complex128(nil), header...)
	Derotate(frame, -0.8) // rotate by +0.8
	if got := PhaseEstimate(frame, header); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("phase estimate %v, want 0.8", got)
	}
	Derotate(frame, 0.8)
	for i := range frame {
		if cmplx.Abs(frame[i]-header[i]) > 1e-12 {
			t.Fatal("derotate did not undo the rotation")
		}
	}
}

func TestImpairmentMatrix(t *testing.T) {
	// Each impairment alone (and the full default channel) must leave the
	// receiver in the error-free zone, allowing a short settle transient.
	cases := []struct {
		name      string
		imp       Impairments
		allowFrEr int64
	}{
		{"clean", CleanChannel(), 0},
		{"gain", func() Impairments { i := CleanChannel(); i.Gain = 0.7; return i }(), 0},
		{"cfo", func() Impairments { i := CleanChannel(); i.CFO = 1e-4; return i }(), 0},
		{"phase", func() Impairments { i := CleanChannel(); i.Phase = 0.6; return i }(), 0},
		{"intdelay", func() Impairments { i := CleanChannel(); i.DelaySamples = 3; return i }(), 0},
		{"fracdelay", func() Impairments { i := CleanChannel(); i.DelayFrac = 0.35; return i }(), 0},
		{"noise14", func() Impairments { i := CleanChannel(); i.SNRdB = 14; i.Seed = 99; return i }(), 2},
		{"full", DefaultChannel(), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx, err := NewTransmitter(Test())
			if err != nil {
				t.Fatal(err)
			}
			rx := NewReceiver(tx, NewTxStream(tx, tc.imp))
			if _, err := streampu.RunChain(rx.Tasks(), 16, nil); err != nil {
				t.Fatal(err)
			}
			if got := rx.Monitor.Frames.Load(); got < 10 {
				t.Fatalf("only %d frames checked", got)
			}
			if fe := rx.Monitor.FrameErrors.Load(); fe > tc.allowFrEr {
				t.Errorf("%d frame errors (allowed %d), BER %.2e",
					fe, tc.allowFrEr, rx.Monitor.BER())
			}
		})
	}
}

func TestFracDelayTapsUnitDC(t *testing.T) {
	for _, mu := range []float64{0, 0.25, 0.5, 0.9} {
		taps := fracDelayTaps(mu)
		sum := 0.0
		for _, h := range taps {
			sum += h
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("mu=%v: DC gain %v", mu, sum)
		}
	}
}

func TestScramblerInvolutionAndPLSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bits := randomBits(rng, 500)
	orig := append([]byte(nil), bits...)
	BBScramble(bits)
	same := 0
	for i := range bits {
		if bits[i] == orig[i] {
			same++
		}
	}
	if same > 350 {
		t.Errorf("BB scrambler barely changed the bits (%d/500 same)", same)
	}
	BBScramble(bits)
	if CountBitErrors(bits, orig) != 0 {
		t.Error("BB scrambling is not an involution")
	}

	s := NewPLScrambler(256)
	syms := make([]complex128, 256)
	for i := range syms {
		syms[i] = QPSKModulate([]byte{byte(rng.Intn(2)), byte(rng.Intn(2))})[0]
	}
	orig2 := append([]complex128(nil), syms...)
	s.Scramble(syms)
	s.Descramble(syms)
	for i := range syms {
		if cmplx.Abs(syms[i]-orig2[i]) > 1e-12 {
			t.Fatal("PL scramble/descramble is not an identity")
		}
	}
	// The sequence must be non-trivial (not all ones).
	nontrivial := 0
	for _, v := range plScrambleSeq(64) {
		if cmplx.Abs(v-1) > 1e-12 {
			nontrivial++
		}
	}
	if nontrivial < 16 {
		t.Errorf("PL sequence nearly trivial: %d/64 non-unit phases", nontrivial)
	}
}

// Extract is ExtractInto into a new frame: nil while no frame is ready.
func (fe *FrameExtractor) Extract(syms []complex128, offset int, locked bool) []complex128 {
	out := make([]complex128, fe.frameLen)
	if !fe.ExtractInto(out, syms, offset, locked) {
		return nil
	}
	return out
}
