package dvbs2

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQPSKModulateMapping(t *testing.T) {
	syms := QPSKModulate([]byte{0, 0, 0, 1, 1, 0, 1, 1})
	want := []complex128{
		complex(invSqrt2, invSqrt2),
		complex(invSqrt2, -invSqrt2),
		complex(-invSqrt2, invSqrt2),
		complex(-invSqrt2, -invSqrt2),
	}
	for i := range want {
		if cmplx.Abs(syms[i]-want[i]) > 1e-15 {
			t.Errorf("symbol %d = %v, want %v", i, syms[i], want[i])
		}
	}
	// Unit energy.
	for i, s := range syms {
		if math.Abs(cmplx.Abs(s)-1) > 1e-12 {
			t.Errorf("symbol %d energy %v", i, cmplx.Abs(s))
		}
	}
}

func TestQPSKModulatePanicsOnOddBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd bit count accepted")
		}
	}()
	QPSKModulate(make([]byte, 3))
}

func TestQPSKHardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n := 2 * (1 + rng.Intn(100))
		bits := randomBits(rng, n)
		return CountBitErrors(QPSKHard(QPSKModulate(bits)), bits) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQPSKSoftLLRSignsMatchHardDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bits := randomBits(rng, 400)
	syms := QPSKModulate(bits)
	// Mild noise: LLR signs must still encode the bits.
	for i := range syms {
		syms[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	llr := QPSKDemodulate(syms, 0.01, nil)
	if len(llr) != len(bits) {
		t.Fatalf("%d LLRs for %d bits", len(llr), len(bits))
	}
	for i, l := range llr {
		want := bits[i] == 1
		if (l < 0) != want {
			t.Fatalf("LLR %d sign wrong", i)
		}
	}
	// Smaller noise variance ⇒ larger LLR magnitude.
	hi := QPSKDemodulate(syms, 0.01, nil)
	lo := QPSKDemodulate(syms, 1.0, nil)
	if math.Abs(hi[0]) <= math.Abs(lo[0]) {
		t.Error("LLR magnitude does not scale with confidence")
	}
	// Non-positive noise variance is clamped, not a crash.
	if out := QPSKDemodulate(syms, 0, nil); len(out) != len(bits) {
		t.Error("zero noise variance mishandled")
	}
}

func TestEstimateNoiseTracksSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sigma := range []float64{0.05, 0.1, 0.2} {
		bits := randomBits(rng, 4000)
		syms := QPSKModulate(bits)
		for i := range syms {
			syms[i] += complex(rng.NormFloat64()*sigma/math.Sqrt2, rng.NormFloat64()*sigma/math.Sqrt2)
		}
		got := EstimateNoise(syms)
		want := sigma * sigma
		if got < want*0.6 || got > want*1.6 {
			t.Errorf("sigma %v: estimated %v, want ≈%v", sigma, got, want)
		}
	}
	if EstimateNoise(nil) <= 0 {
		t.Error("empty estimate must stay positive")
	}
	// Perfect symbols: clamped at the floor, not zero.
	if EstimateNoise(QPSKModulate([]byte{0, 0})) <= 0 {
		t.Error("clean estimate must stay positive")
	}
}

func TestInterleaverBijective(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func() bool {
		cols := []int{2, 3, 4, 5}[rng.Intn(4)]
		rows := 1 + rng.Intn(50)
		n := cols * rows
		il, err := NewInterleaver(n, cols)
		if err != nil {
			return false
		}
		bits := randomBits(rng, n)
		inter := il.Interleave(bits, nil)
		back := il.Deinterleave(inter, nil)
		if CountBitErrors(back, bits) != 0 {
			return false
		}
		// Soft path must apply the same inverse permutation.
		llr := make([]float64, n)
		for i := range llr {
			llr[i] = float64(i)
		}
		billr := il.DeinterleaveLLR(il.interleaveLLRForTest(llr), nil)
		for i := range billr {
			if billr[i] != llr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// interleaveLLRForTest applies the forward permutation to soft values
// (the transmitter only interleaves bits; tests need the soft forward).
func (il *Interleaver) interleaveLLRForTest(llr []float64) []float64 {
	out := make([]float64, len(llr))
	for i, src := range il.perm {
		out[i] = llr[src]
	}
	return out
}

func TestInterleaverActuallyPermutes(t *testing.T) {
	il, err := NewInterleaver(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	bits := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	inter := il.Interleave(bits, nil)
	same := 0
	for i := range inter {
		if inter[i] == bits[i] {
			same++
		}
	}
	if same == len(bits) {
		t.Error("interleaver is the identity")
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(10, 3); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := NewInterleaver(0, 1); err == nil {
		t.Error("zero size accepted")
	}
	il, _ := NewInterleaver(4, 2)
	for _, fn := range []func(){
		func() { il.Interleave(make([]byte, 3), nil) },
		func() { il.Deinterleave(make([]byte, 3), nil) },
		func() { il.DeinterleaveLLR(make([]float64, 3), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("wrong-length input accepted")
				}
			}()
			fn()
		}()
	}
}

// QPSKModulate is qpskModulateInto into a new buffer. The bit slice length
// must be even.
func QPSKModulate(bits []byte) []complex128 {
	if len(bits)%2 != 0 {
		panic(fmt.Sprintf("dvbs2: QPSK modulate: odd bit count %d", len(bits)))
	}
	out := make([]complex128, len(bits)/2)
	qpskModulateInto(out, bits)
	return out
}

// QPSKHard performs hard-decision demapping.
func QPSKHard(syms []complex128) []byte {
	out := make([]byte, 2*len(syms))
	for i, s := range syms {
		if real(s) < 0 {
			out[2*i] = 1
		}
		if imag(s) < 0 {
			out[2*i+1] = 1
		}
	}
	return out
}

// Deinterleave applies the inverse permutation to hard bits.
func (il *Interleaver) Deinterleave(bits []byte, dst []byte) []byte {
	if len(bits) != len(il.perm) {
		panic(fmt.Sprintf("dvbs2: deinterleave %d bits, want %d", len(bits), len(il.perm)))
	}
	if dst == nil {
		dst = make([]byte, len(bits))
	}
	for i, src := range il.perm {
		dst[src] = bits[i]
	}
	return dst
}
