package dvbs2

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if err := Test().Validate(); err != nil {
		t.Errorf("test params invalid: %v", err)
	}
	mutate := []func(*Params){
		func(p *Params) { p.Q = 0 },
		func(p *Params) { p.NLdpc = p.Q*3 + 1 },
		func(p *Params) { p.KLdpc = p.NLdpc },
		func(p *Params) { p.LdpcDv = 1 },
		func(p *Params) { p.BCHM = 3 },
		func(p *Params) { p.BCHM = 5 }, // codeword exceeds 2^5-1
		func(p *Params) { p.BCHT = 0 },
		func(p *Params) { p.SPS = 1 },
		func(p *Params) { p.RollOff = 0 },
		func(p *Params) { p.RollOff = 1 },
		func(p *Params) { p.FilterSpan = 1 },
		func(p *Params) { p.SOFLen = 4 },
	}
	for i, m := range mutate {
		p := Test()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, p)
		}
	}
}

func TestParamsDerived(t *testing.T) {
	p := Default()
	if p.KBch() != 14232 {
		t.Errorf("K_bch = %d, want 14232", p.KBch())
	}
	if p.HeaderSymbols() != 90 {
		t.Errorf("header = %d", p.HeaderSymbols())
	}
	if p.PayloadSymbols() != 8100 {
		t.Errorf("payload = %d", p.PayloadSymbols())
	}
	if p.FrameSymbols() != 8190 || p.FrameSamples() != 16380 {
		t.Errorf("frame %d/%d", p.FrameSymbols(), p.FrameSamples())
	}
}

func TestPLHeaderStableAndUnitEnergy(t *testing.T) {
	h1 := PLHeader(26, 64)
	h2 := PLHeader(26, 64)
	if len(h1) != 90 {
		t.Fatalf("header length %d", len(h1))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("header not deterministic")
		}
		if math.Abs(cmplx.Abs(h1[i])-1) > 1e-12 {
			t.Fatalf("header symbol %d energy %v", i, cmplx.Abs(h1[i]))
		}
	}
	// The SOF must have decent autocorrelation properties: the aligned
	// differential metric dominates misaligned ones.
	sof := h1[:26]
	diff := make([]complex128, 25)
	for i := range diff {
		diff[i] = sof[i+1] * cmplx.Conj(sof[i])
	}
	var aligned complex128
	for _, d := range diff {
		aligned += d * cmplx.Conj(d)
	}
	for off := 3; off < 20; off++ {
		var mis complex128
		for i := 0; i+off+1 < 26; i++ {
			mis += sof[i+off+1] * cmplx.Conj(sof[i+off]) * cmplx.Conj(diff[i])
		}
		if cmplx.Abs(mis) > 0.8*cmplx.Abs(aligned) {
			t.Errorf("SOF differential sidelobe at %d: %.2f vs %.2f",
				off, cmplx.Abs(mis), cmplx.Abs(aligned))
		}
	}
}

func TestTransmitterFrameShape(t *testing.T) {
	p := Test()
	tx, err := NewTransmitter(p)
	if err != nil {
		t.Fatal(err)
	}
	f1 := tx.EncodeFrame()
	f2 := tx.EncodeFrame()
	if len(f1) != p.FrameSamples() || len(f2) != p.FrameSamples() {
		t.Fatalf("frame sample counts %d/%d", len(f1), len(f2))
	}
	// Consecutive frames differ (counter advances).
	same := true
	for i := range f1 {
		if f1[i] != f2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive frames identical")
	}
	// Average per-sample power ≈ 1/SPS (unit-energy symbols, zero-stuffed).
	pow := 0.0
	for _, s := range f2 {
		pow += real(s)*real(s) + imag(s)*imag(s)
	}
	pow /= float64(len(f2))
	if pow < 0.3 || pow > 0.7 {
		t.Errorf("per-sample power %v, want ≈0.5", pow)
	}
}

func TestTransmitterRejectsBadParams(t *testing.T) {
	p := Test()
	p.Q = 0
	if _, err := NewTransmitter(p); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestTxStreamImpairments(t *testing.T) {
	p := Test()
	tx, err := NewTransmitter(p)
	if err != nil {
		t.Fatal(err)
	}
	imp := CleanChannel()
	imp.Gain = 0.5
	s := NewTxStream(tx, imp)
	buf := make([]complex128, p.FrameSamples())
	s.Read(buf)
	s.Read(buf) // second block: fully inside the signal
	pow := 0.0
	for _, v := range buf {
		pow += real(v)*real(v) + imag(v)*imag(v)
	}
	pow /= float64(len(buf))
	// Gain 0.5 → power 0.25× the clean ≈0.5 → ≈0.125.
	if pow < 0.06 || pow > 0.25 {
		t.Errorf("gained power %v, want ≈0.125", pow)
	}

	// Noise raises the power floor.
	impN := CleanChannel()
	impN.SNRdB = 0 // very noisy
	txN, _ := NewTransmitter(p)
	sn := NewTxStream(txN, impN)
	bufN := make([]complex128, p.FrameSamples())
	sn.Read(bufN)
	powN := 0.0
	for _, v := range bufN {
		powN += real(v)*real(v) + imag(v)*imag(v)
	}
	powN /= float64(len(bufN))
	if powN < 0.8 {
		t.Errorf("0 dB SNR power %v, want ≈1 (signal+noise)", powN)
	}

	// Zero gain is coerced to 1, not silence.
	impZ := Impairments{SNRdB: math.Inf(1)}
	sz := NewTxStream(tx, impZ)
	bz := make([]complex128, 64)
	sz.Read(bz)
}

func TestTxStreamIntegerDelayShiftsSignal(t *testing.T) {
	p := Test()
	mk := func(d int) []complex128 {
		tx, err := NewTransmitter(p)
		if err != nil {
			t.Fatal(err)
		}
		imp := CleanChannel()
		imp.DelaySamples = d
		s := NewTxStream(tx, imp)
		buf := make([]complex128, 400)
		s.Read(buf)
		return buf
	}
	ref := mk(0)
	del := mk(5)
	for i := 5; i < 400; i++ {
		if cmplx.Abs(del[i]-ref[i-5]) > 1e-12 {
			t.Fatalf("delayed stream mismatch at %d", i)
		}
	}
	for i := 0; i < 5; i++ {
		if del[i] != 0 {
			t.Fatalf("delay prefix not zero at %d", i)
		}
	}
}

func TestCleanAndDefaultChannels(t *testing.T) {
	c := CleanChannel()
	if c.Gain != 1 || !math.IsInf(c.SNRdB, 1) || c.CFO != 0 {
		t.Errorf("clean channel not clean: %+v", c)
	}
	d := DefaultChannel()
	if d.SNRdB < 6 || d.CFO == 0 || d.DelayFrac == 0 {
		t.Errorf("default channel too tame: %+v", d)
	}
}

func TestTransmitterEncodeAllocs(t *testing.T) {
	p := Test()
	tx, err := NewTransmitter(p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTxStream(tx, DefaultChannel())
	buf := make([]complex128, p.FrameSamples())
	s.Read(buf) // the first frames size the transmitter's buffers and the FIFO
	s.Read(buf)
	if n := testing.AllocsPerRun(20, func() { s.Read(buf) }); n != 0 {
		t.Errorf("TxStream.Read allocates %.0f times per frame, want 0", n)
	}
	// The exported form hands the caller a slice of its own: that copy,
	// nothing else.
	if n := testing.AllocsPerRun(20, func() { tx.EncodeFrame() }); n != 1 {
		t.Errorf("EncodeFrame allocates %.0f times per frame, want 1", n)
	}
}

// CleanChannel returns impairment settings that leave the signal intact.
func CleanChannel() Impairments {
	return Impairments{Gain: 1, SNRdB: math.Inf(1)}
}
