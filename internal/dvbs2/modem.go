package dvbs2

import (
	"fmt"
	"math"
)

// QPSK modem: Gray-mapped π/4 QPSK with unit average energy, matching
// the paper's MODCOD 2. Demodulation produces per-bit LLRs from the
// estimated noise variance (soft output feeding the LDPC SIHO decoder).

const invSqrt2 = 0.7071067811865476

// qpskModulateInto maps bit pairs (b0 = in-phase, b1 = quadrature) to unit
// symbols in the caller's buffer of one symbol per bit pair.
func qpskModulateInto(out []complex128, bits []byte) {
	// Indexed, not branched on: coded bits are coin flips.
	axis := [2]float64{invSqrt2, -invSqrt2}
	for i := range out {
		out[i] = complex(axis[bits[2*i]&1], axis[bits[2*i+1]&1])
	}
}

// QPSKDemodulate computes per-bit LLRs (positive ⇒ bit 0) for the given
// symbols and noise variance σ² per complex dimension pair. llr must have
// 2·len(syms) capacity; it is returned resliced.
func QPSKDemodulate(syms []complex128, noiseVar float64, llr []float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-9
	}
	llr = llr[:0]
	scale := 2 * math.Sqrt2 / noiseVar
	for _, s := range syms {
		llr = append(llr, scale*real(s), scale*imag(s))
	}
	return llr
}

// EstimateNoise estimates the noise variance of unit-energy QPSK symbols
// from the spread of their magnitudes around the decision points (an
// M2M4-style blind estimator, the "Noise Estimator – estimate" task). It
// returns a variance clamped to a small positive floor.
func EstimateNoise(syms []complex128) float64 {
	if len(syms) == 0 {
		return 1e-9
	}
	// E|y|² = Es + σ²; with decision-directed removal of the signal part:
	// average squared distance to the nearest constellation point.
	sum := 0.0
	for _, s := range syms {
		re, im := math.Abs(real(s)), math.Abs(imag(s))
		dre := re - invSqrt2
		dim := im - invSqrt2
		sum += dre*dre + dim*dim
	}
	v := sum / float64(len(syms))
	if v < 1e-9 {
		v = 1e-9
	}
	return v
}

// Interleaver is a rows×cols block interleaver (written row-wise, read
// column-wise), a bijection on bit positions. DVB-S2 applies its bit
// interleaver to 8PSK and above; the paper's QPSK chain still carries an
// interleaver task, so the codeword passes through this permutation.
type Interleaver struct {
	perm []int32 // perm[i] = source index of output position i
	inv  []int32
}

// NewInterleaver builds an interleaver for n bits using c columns; n must
// be divisible by c.
func NewInterleaver(n, c int) (*Interleaver, error) {
	if c <= 0 || n <= 0 || n%c != 0 {
		return nil, fmt.Errorf("dvbs2: interleaver %d bits / %d columns", n, c)
	}
	il := &Interleaver{perm: make([]int32, n), inv: make([]int32, n)}
	i := 0
	for col := 0; col < c; col++ {
		for row := 0; row < n/c; row++ {
			src := row*c + col
			il.perm[i] = int32(src)
			il.inv[src] = int32(i)
			i++
		}
	}
	return il, nil
}

// Interleave permutes bits into dst (allocated if nil) and returns dst.
func (il *Interleaver) Interleave(bits []byte, dst []byte) []byte {
	if len(bits) != len(il.perm) {
		panic(fmt.Sprintf("dvbs2: interleave %d bits, want %d", len(bits), len(il.perm)))
	}
	if dst == nil {
		dst = make([]byte, len(bits))
	}
	for i, src := range il.perm {
		dst[i] = bits[src]
	}
	return dst
}

// DeinterleaveLLR applies the inverse permutation to soft values.
func (il *Interleaver) DeinterleaveLLR(llr []float64, dst []float64) []float64 {
	if len(llr) != len(il.perm) {
		panic(fmt.Sprintf("dvbs2: deinterleave %d LLRs, want %d", len(llr), len(il.perm)))
	}
	if dst == nil {
		dst = make([]float64, len(llr))
	}
	for i, src := range il.perm {
		dst[src] = llr[i]
	}
	return dst
}
