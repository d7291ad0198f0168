package dvbs2

import (
	"math"
	"math/rand"
	"testing"
)

// checkPhasors holds phasors to math.Sincos by bit pattern, cosine and
// sine, on one batch of arguments, and checks that it writes nothing past
// len(args).
func checkPhasors(t testing.TB, args []float64) {
	t.Helper()
	sentinel := complex(math.Inf(1), math.Inf(-1))
	dst := filled(len(args)+1, sentinel)
	phasors(dst[:len(args)], args)
	for i, x := range args {
		s, c := math.Sincos(x)
		if math.Float64bits(real(dst[i])) != math.Float64bits(c) || math.Float64bits(imag(dst[i])) != math.Float64bits(s) {
			t.Fatalf("argument %d of %d, %v (%#x): phasors gives %v, math.Sincos (cos %v, sin %v)",
				i, len(args), x, math.Float64bits(x), dst[i], c, s)
		}
	}
	if dst[len(args)] != sentinel {
		t.Fatalf("phasors wrote past its %d arguments", len(args))
	}
}

// rampArgs returns n arguments of each sequence a phasor site produces at
// frequency f: FineFreqSync's and DerotateRamp's −2π·f·i, CoarseFreqSync's
// −phase and TxStream's phase, where the phase starts at phase0 and grows
// by 2π·f a sample.
func rampArgs(f, phase0 float64, n int) [][]float64 {
	ramp, coarse, tx := make([]float64, n), make([]float64, n), make([]float64, n)
	cp, tp := phase0, phase0
	for i := 0; i < n; i++ {
		ramp[i] = -2 * math.Pi * f * float64(i)
		coarse[i] = -cp
		cp += 2 * math.Pi * f
		tx[i] = tp
		tp += 2 * math.Pi * f
	}
	return [][]float64{ramp, coarse, tx}
}

func TestPhasorsMatchSincos(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	// Uniform arguments over three ranges (the last one reaches past 2^29,
	// where math.Sincos reduces with Payne–Hanek and phasors hands off),
	// and raw bit patterns: NaNs, infinities and subnormals included.
	const perKind = 1 << 18
	args := make([]float64, 0, 4*perKind)
	for _, r := range []float64{8, 1e4, 1.01 * (1 << 29)} {
		for i := 0; i < perKind; i++ {
			args = append(args, r*(2*rng.Float64()-1))
		}
	}
	for i := 0; i < perKind; i++ {
		args = append(args, math.Float64frombits(rng.Uint64()))
	}
	// Batches of every length up to 130, so every argument meets both
	// lanes, the odd tail and the hand-off at every position.
	for rest := args; len(rest) > 0; {
		n := min(rng.Intn(131), len(rest))
		checkPhasors(t, rest[:n])
		rest = rest[n:]
	}

	// Special arguments, alone and in either lane beside an ordinary one.
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1 << 29, -(1 << 29), math.Nextafter(1<<29, 0), -math.Nextafter(1<<29, 0),
	}
	for k := -16; k <= 16; k++ { // the octant boundaries kπ/4 and their neighbours
		x := float64(k) * math.Pi / 4
		specials = append(specials, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range specials {
		for _, batch := range [][]float64{{x}, {x, 1}, {1, x}, {1, -2, x}, {x, x, x, x, 0.5}} {
			checkPhasors(t, batch)
		}
	}
	checkPhasors(t, specials)

	// Each site's argument sequence, of odd length: negative arguments
	// past the first octant are the sign logic a symmetric random batch
	// can miss.
	for _, f := range []float64{1e-4, -3.7e-3, 0.02, -0.11, 0.37} {
		for _, n := range []int{1, 63, 65, 1799, 3241} {
			for _, a := range rampArgs(f, 0.3, n) {
				checkPhasors(t, a)
			}
		}
	}
}

// TestDerotateRampMatchesPerSample holds a site to the per-sample code it
// replaced, frame[i] *= phasor(−2π·f·i), by ==.
func TestDerotateRampMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 1799} {
		f := 0.01 * rng.NormFloat64()
		frame := make([]complex128, n)
		for i := range frame {
			frame[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), frame...)
		for i := range want {
			want[i] *= phasor(-2 * math.Pi * f * float64(i))
		}
		DerotateRamp(frame, f)
		for i := range want {
			if frame[i] != want[i] {
				t.Fatalf("n=%d f=%v: sample %d is %v, per-sample code %v", n, f, i, frame[i], want[i])
			}
		}
	}
}

// FuzzPhasorsMatchSincos holds phasors to math.Sincos on n arguments
// x, x+dx, x+2·dx, … (and on the ramps the phasor sites make at frequency
// dx), bit for bit.
func FuzzPhasorsMatchSincos(f *testing.F) {
	f.Add(0.0, 0.1, uint8(65))
	f.Add(-3.0, -0.7, uint8(8))
	f.Add(5.3e8, 1.0e6, uint8(33))
	f.Add(math.Inf(-1), 1.0, uint8(3))
	f.Add(-math.Pi/4, 1e-3, uint8(129))
	f.Fuzz(func(t *testing.T, x, dx float64, n uint8) {
		args := make([]float64, n)
		for i := range args {
			args[i] = x + dx*float64(i)
		}
		checkPhasors(t, args)
		for _, a := range rampArgs(dx, x, int(n)) {
			checkPhasors(t, a)
		}
	})
}
