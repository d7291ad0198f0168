package dvbs2

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestRRCTapsProperties(t *testing.T) {
	taps := RRCTaps(0.2, 10, 2)
	if len(taps) != 41 {
		t.Fatalf("%d taps, want 2·10·2+1", len(taps))
	}
	// Unit energy.
	e := 0.0
	for _, h := range taps {
		e += h * h
	}
	if math.Abs(e-1) > 1e-12 {
		t.Errorf("energy %v", e)
	}
	// Symmetric around the center.
	for i := 0; i < len(taps)/2; i++ {
		if math.Abs(taps[i]-taps[len(taps)-1-i]) > 1e-12 {
			t.Fatalf("asymmetry at tap %d", i)
		}
	}
	// Peak at the center.
	mid := taps[len(taps)/2]
	for i, h := range taps {
		if math.Abs(h) > mid+1e-12 {
			t.Errorf("tap %d (%v) above center (%v)", i, h, mid)
		}
	}
	// The singular point |t| = 1/(4β) (β=0.25 makes it land on a tap) is
	// handled by the closed form, not a NaN.
	for _, h := range RRCTaps(0.25, 4, 1) {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatal("RRC taps contain NaN/Inf at the singular point")
		}
	}
}

func TestRRCTapsPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){
		func() { RRCTaps(0, 4, 2) },
		func() { RRCTaps(1.2, 4, 2) },
		func() { RRCTaps(0.2, 0, 2) },
		func() { RRCTaps(0.2, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid RRC parameters accepted")
				}
			}()
			fn()
		}()
	}
}

func TestRRCCascadeIsNyquist(t *testing.T) {
	// RRC ⊗ RRC = raised cosine: sampling the cascade at symbol strobes
	// must give (nearly) zero ISI. Send an impulse train and check.
	sps := 2
	span := 10
	tx := NewFIR(RRCTaps(0.2, span, sps))
	rx := NewFIR(RRCTaps(0.2, span, sps))
	n := 64
	syms := make([]complex128, n)
	syms[n/2] = 1 // single impulse
	up := Upsample(syms, sps, nil)
	shaped := tx.Process(up, nil)
	matched := rx.Process(shaped, nil)
	// The peak appears at the impulse position + the cascade group delay
	// (two filters, each delaying by (len-1)/2 = span·sps samples).
	peak := n/2*sps + 2*span*sps
	if cmplx.Abs(matched[peak]) < 0.95 {
		t.Fatalf("cascade peak %v at %d", matched[peak], peak)
	}
	// Other symbol strobes see ≈0 (Nyquist criterion).
	for k := 1; k < 8; k++ {
		v := cmplx.Abs(matched[peak+k*sps])
		if v > 0.02 {
			t.Errorf("ISI at strobe +%d: %v", k, v)
		}
	}
}

func TestFIRStreamingMatchesBatch(t *testing.T) {
	// Filtering in chunks with carried state must equal one-shot
	// filtering.
	rng := rand.New(rand.NewSource(31))
	taps := RRCTaps(0.3, 4, 2)
	in := make([]complex128, 300)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	batch := NewFIR(taps).Process(in, nil)
	stream := NewFIR(taps)
	var out []complex128
	for i := 0; i < len(in); {
		end := i + 1 + rng.Intn(40)
		if end > len(in) {
			end = len(in)
		}
		out = append(out, stream.Process(in[i:end], nil)...)
		i = end
	}
	for i := range batch {
		if cmplx.Abs(batch[i]-out[i]) > 1e-12 {
			t.Fatalf("streaming mismatch at %d: %v vs %v", i, out[i], batch[i])
		}
	}
}

// clone returns an independent copy of the filter: the delay line is its
// whole state.
func (f *FIR) clone() *FIR {
	return &FIR{rtaps: f.rtaps, d: f.d, line: append([]complex128(nil), f.line...)}
}

func TestFIRCloneIndependence(t *testing.T) {
	taps := []float64{0.5, 0.5}
	a := NewFIR(taps)
	a.Process([]complex128{1, 2, 3}, nil)
	b := a.clone()
	// Same state right after cloning…
	outA := a.Process([]complex128{4}, nil)
	outB := b.Process([]complex128{4}, nil)
	if outA[0] != outB[0] {
		t.Fatalf("clone state differs: %v vs %v", outA[0], outB[0])
	}
	// …but divergent afterwards.
	a.Process([]complex128{100}, nil)
	outB2 := b.Process([]complex128{5}, nil)
	outA2 := a.Process([]complex128{5}, nil)
	if outA2[0] == outB2[0] {
		t.Error("clone shares the delay line")
	}
}

// Upsample inserts sps−1 zeros after every symbol (zero-stuffing): the
// textbook front half of pulse shaping, which Interpolator never
// materializes. Tests shape the stuffed stream with the reference filter
// to check it.
func Upsample(syms []complex128, sps int, dst []complex128) []complex128 {
	if dst == nil {
		dst = make([]complex128, len(syms)*sps)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, s := range syms {
		dst[i*sps] = s
	}
	return dst
}

// referenceFIR is the filter loop this package ran before FIR trimmed
// zero taps and read contiguous windows: every tap multiplied out, zeros
// included, one branch per tap to pick chunk or delay line. FIR must
// equal it exactly — not to a tolerance — on every finite input. As in
// FIR.filter, float64(…) keeps a platform from fusing product and sum.
type referenceFIR struct {
	taps []float64
	hist []complex128 // delay line, hist[0] = most recent past sample
}

func newReferenceFIR(taps []float64) *referenceFIR {
	return &referenceFIR{taps: taps, hist: make([]complex128, max(len(taps)-1, 0))}
}

func (f *referenceFIR) process(in []complex128) []complex128 {
	dst := make([]complex128, len(in))
	nh := len(f.hist)
	for i := range in {
		var re, im float64
		for j, tap := range f.taps {
			var x complex128
			if idx := i - j; idx >= 0 {
				x = in[idx]
			} else {
				x = f.hist[-idx-1]
			}
			re += float64(tap * real(x))
			im += float64(tap * imag(x))
		}
		dst[i] = complex(re, im)
	}
	// Update the delay line with the most recent nh input samples.
	if len(in) >= nh {
		for j := 0; j < nh; j++ {
			f.hist[j] = in[len(in)-1-j]
		}
	} else {
		copy(f.hist[len(in):], f.hist[:nh-len(in)])
		for j := 0; j < len(in); j++ {
			f.hist[j] = in[len(in)-1-j]
		}
	}
	return dst
}

// checkFIRAgainstReference streams one random signal, cut into random
// chunks (empty ones and ones shorter than the delay line included),
// through FIR and through the reference, and through Interpolator and
// "Upsample, then reference". Outputs must be equal component by
// component. Half-way the filters are swapped for their clones.
func checkFIRAgainstReference(t *testing.T, taps []float64, sps int, rng *rand.Rand) {
	t.Helper()
	fir, ref := NewFIR(taps), newReferenceFIR(taps)
	ip, ipRef := NewInterpolator(taps, sps), newReferenceFIR(taps)
	total := 1 + rng.Intn(400)
	for done := 0; done < total; {
		n := rng.Intn(2*len(taps) + 4)
		if rng.Intn(8) == 0 {
			n = rng.Intn(total)
		}
		n = min(n, total-done)
		in := make([]complex128, n)
		for i := range in {
			if rng.Intn(16) != 0 { // leave some exact zeros in
				in[i] = complex(rng.NormFloat64(), 100*rng.NormFloat64())
			}
		}
		if done <= total/2 && done+n > total/2 {
			fir = fir.clone()
		}
		// A dirty destination: Process must overwrite all of it.
		dst := make([]complex128, n)
		for i := range dst {
			dst[i] = complex(math.NaN(), math.NaN())
		}
		got, want := fir.Process(in, dst), ref.process(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("taps %v: FIR output %d of the chunk at %d is %v, reference %v", taps, i, done, got[i], want[i])
			}
		}
		dst = make([]complex128, n*sps)
		for i := range dst {
			dst[i] = complex(math.NaN(), math.NaN())
		}
		got, want = ip.Process(in, dst), ipRef.process(Upsample(in, sps, nil))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("taps %v sps %d: Interpolator output %d of the chunk at %d is %v, reference %v", taps, sps, i, done, got[i], want[i])
			}
		}
		done += n
	}
	checkFIRKernels(t, taps, sps, rng)
}

// checkFIRKernels holds each kernel to the reference directly: filter
// (the assembly on amd64) and filterGo compute the outputs of one random
// signal whose windows lie inside it, written at a random offset and at
// stride step into a NaN-filled buffer, every other element of which must
// stay NaN.
func checkFIRKernels(t *testing.T, taps []float64, step int, rng *rand.Rand) {
	t.Helper()
	f := NewFIR(taps)
	x := make([]complex128, f.d+rng.Intn(40))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 100*rng.NormFloat64())
	}
	want := newReferenceFIR(taps).process(x)
	at := rng.Intn(3)
	for _, k := range []struct {
		name   string
		kernel func(x []complex128, lo, hi int, dst []complex128, at, step int)
	}{{"filter", f.filter}, {"filterGo", f.filterGo}} {
		dst := filled(at+(len(x)-f.d)*step+step, complex(math.NaN(), math.NaN()))
		k.kernel(x, f.d, len(x), dst, at, step)
		for j, v := range dst {
			if o := j - at; o >= 0 && o%step == 0 && f.d+o/step < len(x) {
				if w := want[f.d+o/step]; v != w {
					t.Fatalf("taps %v step %d: %s output %d is %v, reference %v", taps, step, k.name, o/step, v, w)
				}
			} else if !cmplx.IsNaN(v) {
				t.Fatalf("taps %v step %d: %s wrote %v to dst[%d], which no output maps to", taps, step, k.name, v, j)
			}
		}
	}
}

// zeroRunTaps builds a tap set with zero runs at the front, in the middle
// and at the back around nz random taps (nz = 0: all zeros).
func zeroRunTaps(rng *rand.Rand, lead, nz, mid, trail int) []float64 {
	taps := make([]float64, lead+nz+mid+trail)
	for i := 0; i < nz; i++ {
		at := lead + i
		if i >= nz/2 {
			at += mid
		}
		for taps[at] == 0 {
			taps[at] = rng.NormFloat64()
		}
	}
	return taps
}

func TestFIRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// The tap sets the transceiver runs: the two matched-filter halves
	// (the second one leads with 20 zeros), the fractional-delay filter
	// and the shaper.
	rrc := RRCTaps(0.2, 10, 2)
	half := make([]float64, len(rrc))
	copy(half[20:], rrc[20:])
	for _, taps := range [][]float64{rrc, rrc[:20], half, fracDelayTaps(0.35)} {
		for sps := 1; sps <= 4; sps++ {
			checkFIRAgainstReference(t, taps, sps, rng)
		}
	}
	for i := 0; i < 300; i++ {
		taps := zeroRunTaps(rng, rng.Intn(4), rng.Intn(12), rng.Intn(4), rng.Intn(4))
		checkFIRAgainstReference(t, taps, 1+rng.Intn(4), rng)
	}
}

func FuzzFIRMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), uint8(0), uint8(0), uint8(2))
	f.Add(int64(2), uint8(20), uint8(21), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(2), uint8(7), uint8(3), uint8(2), uint8(3))
	f.Add(int64(4), uint8(3), uint8(0), uint8(1), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, lead, nz, mid, trail, sps uint8) {
		rng := rand.New(rand.NewSource(seed))
		taps := zeroRunTaps(rng, int(lead%32), int(nz%32), int(mid%8), int(trail%8))
		checkFIRAgainstReference(t, taps, 1+int(sps%4), rng)
	})
}

func TestUpsample(t *testing.T) {
	out := Upsample([]complex128{1, 2i}, 3, nil)
	want := []complex128{1, 0, 0, 2i, 0, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("upsample[%d] = %v", i, out[i])
		}
	}
	// Reuses dst and clears it.
	dst := []complex128{9, 9, 9, 9, 9, 9}
	out2 := Upsample([]complex128{1, 2i}, 3, dst)
	if &out2[0] != &dst[0] || out2[1] != 0 {
		t.Error("dst not reused/cleared")
	}
}

func TestFIRSmallChunksShorterThanDelayLine(t *testing.T) {
	// Chunks shorter than the delay line exercise the partial history
	// shift path.
	taps := make([]float64, 9)
	taps[8] = 1 // pure 8-sample delay
	f := NewFIR(taps)
	var out []complex128
	for i := 0; i < 20; i++ {
		out = append(out, f.Process([]complex128{complex(float64(i), 0)}, nil)...)
	}
	for i := 8; i < 20; i++ {
		if real(out[i]) != float64(i-8) {
			t.Fatalf("delayed output wrong at %d: %v", i, out[i])
		}
	}
}
