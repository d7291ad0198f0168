package dvbs2

import "fmt"

// BCH is a systematic narrow-sense binary BCH codec over GF(2^m),
// shortened to the requested information length. Encoding is LFSR
// division by the generator polynomial, the register packed 64 taps to
// a word; decoding is the classic
// hard-input hard-output (HIHO) pipeline: syndrome computation,
// Berlekamp–Massey, and Chien search — the same kernel as the paper's
// "Decoder BCH – decode HIHO" task.
type BCH struct {
	field *gf
	t     int
	k     int    // information bits
	nCW   int    // codeword bits = k + parity
	gen   []byte // generator polynomial bits, index = degree
	deg   int    // parity bits = degree of gen
	// genw packs gen below its leading term, bit d of the register in bit
	// d%64 of word d/64: what a feedback of 1 adds to the register.
	genw []uint64
}

// Scratch of the codec's two kernels lives on the caller's stack up to
// these sizes — correction capability t for Decode, parity bits for
// Encode; DVB-S2's codes have t ≤ 12 and at most 192 parity bits — and is
// allocated beyond them. It cannot live in the BCH value: the replicas of
// a pipeline stage share one.
const (
	bchStackT      = 16
	bchStackParity = 256
)

// NewBCH builds a BCH codec over GF(2^m) correcting t errors with k
// information bits. The shortened codeword is k + deg(g) bits and must
// fit the field bound 2^m − 1.
func NewBCH(m, t, k int) (*BCH, error) {
	field, err := newGF(m)
	if err != nil {
		return nil, err
	}
	// Generator = lcm of the minimal polynomials of α, α^3, …, α^(2t−1).
	gen := []byte{1}
	seen := map[string]bool{}
	for i := 1; i <= 2*t-1; i += 2 {
		mp := f2key(field.minimalPoly(i))
		if seen[mp] {
			continue
		}
		seen[mp] = true
		gen = polyMulGF2(gen, field.minimalPoly(i))
	}
	b := &BCH{field: field, t: t, k: k, gen: gen, deg: len(gen) - 1}
	b.nCW = k + b.deg
	b.genw = make([]uint64, (b.deg+63)/64)
	for d := 0; d < b.deg; d++ {
		b.genw[d/64] |= uint64(gen[d]&1) << (d % 64)
	}
	if b.nCW > field.n {
		return nil, fmt.Errorf("dvbs2: BCH codeword %d exceeds 2^%d−1=%d", b.nCW, m, field.n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("dvbs2: BCH k=%d", k)
	}
	return b, nil
}

func f2key(p []byte) string { return string(p) }

// N returns the (shortened) codeword length in bits.
func (b *BCH) N() int { return b.nCW }

// encodeInto writes the systematic codeword of info (k bits) into cw (N
// bits): info followed by the BCH parity.
func (b *BCH) encodeInto(cw, info []byte) {
	if len(info) != b.k || len(cw) != b.nCW {
		panic(fmt.Sprintf("dvbs2: BCH encode: %d info bits into %d, want %d into %d",
			len(info), len(cw), b.k, b.nCW))
	}
	copy(cw, info)
	// LFSR division: remainder of info(x)·x^deg by gen(x), one info bit
	// per step: shift the register up by one and, when the bit leaving it
	// differs from the info bit, add gen. Bits shifted past deg−1 in the
	// top word are never read.
	var stack [bchStackParity / 64]uint64
	reg := stack[:]
	if len(b.genw) > len(reg) {
		reg = make([]uint64, len(b.genw))
	}
	reg = reg[:len(b.genw)]
	top, topBit := (b.deg-1)/64, uint((b.deg-1)%64)
	for _, bit := range info {
		fb := -(uint64(bit&1) ^ reg[top]>>topBit&1) // all ones or all zeros
		for w := top; w > 0; w-- {
			reg[w] = (reg[w]<<1 | reg[w-1]>>63) ^ b.genw[w]&fb
		}
		reg[0] = reg[0]<<1 ^ b.genw[0]&fb
	}
	// Parity bits, highest-degree first to mirror the systematic layout.
	for d := 0; d < b.deg; d++ {
		e := b.deg - 1 - d
		cw[b.k+d] = byte(reg[e/64] >> (e % 64) & 1)
	}
}

// Decode corrects up to t bit errors in the codeword cw (length N) in
// place and returns the corrected information bits, the number of
// corrected errors, and whether decoding succeeded. On failure cw is left
// as it came, the information bits are returned uncorrected and the count
// is 0.
func (b *BCH) Decode(cw []byte) (info []byte, corrected int, ok bool) {
	if len(cw) != b.nCW {
		panic(fmt.Sprintf("dvbs2: BCH decode: %d bits, want %d", len(cw), b.nCW))
	}
	f := b.field
	// Divide the received word r(x) by g(x), bit i ↦ coefficient of
	// x^(nCW−1−i), with the encoder's packed LFSR: shift the next
	// coefficient in at the bottom and, when a 1 leaves degree deg−1, add
	// gen. What is left is the remainder ρ(x), deg ρ < deg g.
	var stackReg [bchStackParity / 64]uint64
	reg := stackReg[:]
	if len(b.genw) > len(reg) {
		reg = make([]uint64, len(b.genw))
	}
	reg = reg[:len(b.genw)]
	genw := b.genw[:len(reg)]
	top, topBit := len(reg)-1, uint((b.deg-1)%64)
	_ = reg[top] // one bounds check for the whole loop
	for _, bit := range cw {
		fb := -(reg[top] >> topBit & 1) // all ones or all zeros
		for w := top; w > 0; w-- {
			reg[w] = (reg[w]<<1 | reg[w-1]>>63) ^ genw[w]&fb
		}
		reg[0] = (reg[0]<<1 | uint64(bit&1)) ^ genw[0]&fb
	}
	reg[top] &= 1<<topBit<<1 - 1 // drop what was shifted past deg−1
	var rho uint64
	for _, w := range reg {
		rho |= w
	}
	// r(x) is a codeword exactly when ρ(x) = 0, and then every syndrome is 0.
	if rho == 0 {
		return cw[:b.k], 0, true
	}
	// synd, lambda, prev and tmp: 2t+2 words each.
	var stack [4 * (2*bchStackT + 2)]uint32
	scratch, w := stack[:], 2*b.t+2
	if 4*w > len(scratch) {
		scratch = make([]uint32, 4*w)
	}
	synd, lambda, prev, tmp := scratch[:w], scratch[w:2*w], scratch[2*w:3*w], scratch[3*w:4*w]
	// Syndromes S_j = r(α^j) = ρ(α^j), j = 1..2t, since g(α^j) = 0 for
	// each of them: Horner over ρ's coefficients, high degree first.
	for j := 1; j <= 2*b.t; j++ {
		aj := f.pow(j)
		var acc uint32
		for d := b.deg - 1; d >= 0; d-- {
			acc = f.mul(acc, aj) ^ uint32(reg[d/64]>>(d%64)&1)
		}
		synd[j] = acc
	}

	// Berlekamp–Massey: find the error-locator polynomial Λ.
	lambda[0], prev[0] = 1, 1
	L := 0
	mShift := 1
	bDisc := uint32(1)
	for n := 1; n <= 2*b.t; n++ {
		// Discrepancy d = S_n + Σ λ_i S_{n−i}.
		d := synd[n]
		for i := 1; i <= L; i++ {
			d ^= f.mul(lambda[i], synd[n-i])
		}
		if d == 0 {
			mShift++
			continue
		}
		if 2*L <= n-1 {
			copy(tmp, lambda)
			coef := f.mul(d, f.inv(bDisc))
			for i := 0; i+mShift < len(lambda); i++ {
				lambda[i+mShift] ^= f.mul(coef, prev[i])
			}
			L = n - L
			prev, tmp = tmp, prev
			bDisc = d
			mShift = 1
		} else {
			coef := f.mul(d, f.inv(bDisc))
			for i := 0; i+mShift < len(lambda); i++ {
				lambda[i+mShift] ^= f.mul(coef, prev[i])
			}
			mShift++
		}
	}
	if L > b.t {
		return cw[:b.k], 0, false // too many errors
	}

	// Chien search over the shortened positions: bit i corresponds to
	// x^(nCW−1−i); an error at i means Λ(α^(−(nCW−1−i))) = 0. The roots
	// are only recorded here, so a failed decode leaves cw untouched.
	var stackPos [bchStackT]int
	pos := stackPos[:]
	if b.t > len(pos) {
		pos = make([]int, b.t)
	}
	roots := 0
	for i := 0; i < b.nCW && roots < L; i++ {
		e := b.nCW - 1 - i
		x := f.pow(-e)
		var acc uint32
		xp := uint32(1)
		for d := 0; d <= L; d++ {
			acc ^= f.mul(lambda[d], xp)
			xp = f.mul(xp, x)
		}
		if acc == 0 {
			pos[roots] = i
			roots++
		}
	}
	if roots != L {
		return cw[:b.k], 0, false // roots outside the shortened range
	}
	for _, i := range pos[:roots] {
		cw[i] ^= 1
	}
	return cw[:b.k], roots, true
}
