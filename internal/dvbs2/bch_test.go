package dvbs2

import (
	"math/rand"
	"testing"
)

// encode returns the systematic codeword of info: info followed by parity.
func (b *BCH) encode(info []byte) []byte {
	cw := make([]byte, b.nCW)
	b.encodeInto(cw, info)
	return cw
}

func TestGFFieldProperties(t *testing.T) {
	for _, m := range []int{4, 8, 11, 14} {
		f, err := newGF(m)
		if err != nil {
			t.Fatalf("GF(2^%d): %v", m, err)
		}
		// α generates the full multiplicative group (checked in newGF),
		// exp/log are inverses, and basic identities hold.
		for _, a := range []uint32{1, 2, 3, uint32(f.n)} {
			if f.mul(a, 1) != a {
				t.Errorf("m=%d: a·1 != a for a=%d", m, a)
			}
			if f.mul(a, f.inv(a)) != 1 {
				t.Errorf("m=%d: a·a⁻¹ != 1 for a=%d", m, a)
			}
		}
		if f.mul(0, 5) != 0 || f.mul(7, 0) != 0 {
			t.Errorf("m=%d: multiplication by zero broken", m)
		}
		rng := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < 200; i++ {
			a := uint32(rng.Intn(f.n)) + 1
			b := uint32(rng.Intn(f.n)) + 1
			c := uint32(rng.Intn(f.n)) + 1
			if f.mul(a, b) != f.mul(b, a) {
				t.Fatalf("m=%d: commutativity broken", m)
			}
			if f.mul(a, f.mul(b, c)) != f.mul(f.mul(a, b), c) {
				t.Fatalf("m=%d: associativity broken", m)
			}
		}
	}
}

func TestGFUnsupportedField(t *testing.T) {
	if _, err := newGF(3); err == nil {
		t.Error("GF(2^3) should be unsupported")
	}
}

func TestMinimalPolyDividesFieldPoly(t *testing.T) {
	// Each minimal polynomial must have α^i as a root: evaluate over the
	// field and check.
	f, err := newGF(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3, 5, 7} {
		mp := f.minimalPoly(i)
		root := f.pow(i)
		var acc uint32
		xp := uint32(1)
		for _, c := range mp {
			if c != 0 {
				acc ^= xp
			}
			xp = f.mul(xp, root)
		}
		if acc != 0 {
			t.Errorf("minimalPoly(%d) does not vanish at α^%d", i, i)
		}
	}
}

// referenceBCHParity is the encoder's LFSR one tap to a byte, as it ran
// before the register was packed into words.
func referenceBCHParity(b *BCH, info []byte) []byte {
	reg := make([]byte, b.deg)
	for _, bit := range info {
		fb := (bit & 1) ^ reg[b.deg-1]
		copy(reg[1:], reg[:b.deg-1])
		reg[0] = 0
		if fb != 0 {
			for d := 0; d < b.deg; d++ {
				reg[d] ^= b.gen[d]
			}
		}
	}
	parity := make([]byte, b.deg)
	for d := range parity {
		parity[d] = reg[b.deg-1-d]
	}
	return parity
}

func TestBCHEncodeMatchesBytewiseLFSR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Registers of less than a word, of three words, and past the stack
	// bound (m·t = 16, 44, 168, 320 bits).
	for _, c := range [][3]int{{8, 2, 100}, {11, 4, 1396}, {14, 12, 2000}, {16, 20, 700}} {
		b, err := NewBCH(c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			info := make([]byte, b.k)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			cw := b.encode(info)
			if string(cw[:b.k]) != string(info) {
				t.Fatalf("BCH(m=%d,t=%d): codeword is not systematic", c[0], c[1])
			}
			if got, want := cw[b.k:], referenceBCHParity(b, info); string(got) != string(want) {
				t.Fatalf("BCH(m=%d,t=%d), %d parity bits: packed register gives %v, byte-wise LFSR %v",
					c[0], c[1], b.ParityBits(), got, want)
			}
		}
	}
}

func TestBCHEncodeDecodeNoErrors(t *testing.T) {
	b, err := NewBCH(11, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if b.ParityBits() != 44 {
		t.Errorf("parity bits = %d, want 44 (= m·t)", b.ParityBits())
	}
	rng := rand.New(rand.NewSource(1))
	info := randomBits(rng, b.k)
	cw := b.encode(info)
	if len(cw) != b.N() {
		t.Fatalf("codeword length %d, want %d", len(cw), b.N())
	}
	dec, corrected, ok := b.Decode(append([]byte(nil), cw...))
	if !ok || corrected != 0 {
		t.Fatalf("clean decode failed: ok=%v corrected=%d", ok, corrected)
	}
	if CountBitErrors(dec, info) != 0 {
		t.Error("clean decode corrupted the info bits")
	}
}

func TestBCHCorrectsUpToT(t *testing.T) {
	b, err := NewBCH(11, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		info := randomBits(rng, b.k)
		cw := b.encode(info)
		nerr := 1 + rng.Intn(b.t)
		flip(rng, cw, nerr)
		dec, corrected, ok := b.Decode(cw)
		if !ok {
			t.Fatalf("trial %d: decode failed with %d ≤ t errors", trial, nerr)
		}
		if corrected != nerr {
			t.Fatalf("trial %d: corrected %d, want %d", trial, corrected, nerr)
		}
		if CountBitErrors(dec, info) != 0 {
			t.Fatalf("trial %d: residual errors after decode", trial)
		}
	}
}

func TestBCHDetectsBeyondT(t *testing.T) {
	b, err := NewBCH(11, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	failures := 0
	for trial := 0; trial < 20; trial++ {
		info := randomBits(rng, b.k)
		cw := b.encode(info)
		flip(rng, cw, b.t+2+rng.Intn(5))
		if _, _, ok := b.Decode(cw); !ok {
			failures++
		}
	}
	// Beyond-t patterns usually fail (they may occasionally alias to a
	// valid codeword); require that detection fires most of the time.
	if failures < 15 {
		t.Errorf("only %d/20 beyond-t patterns detected", failures)
	}
}

func TestBCHFailureLeavesInputUntouched(t *testing.T) {
	b, err := NewBCH(11, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	failures := 0
	for trial := 0; trial < 200; trial++ {
		cw := b.encode(randomBits(rng, b.k))
		flip(rng, cw, b.t+2+rng.Intn(5))
		in := append([]byte(nil), cw...)
		if _, corrected, ok := b.Decode(cw); !ok {
			failures++
			if string(cw) != string(in) {
				t.Fatalf("trial %d: failed decode changed its input", trial)
			}
			if corrected != 0 {
				t.Fatalf("trial %d: failed decode reports %d corrections", trial, corrected)
			}
		}
	}
	if failures < 150 {
		t.Fatalf("only %d/200 beyond-t patterns failed: the test needs failures", failures)
	}
}

// referenceBCHDecode is Decode as it ran before it divided by g(x) first:
// every syndrome by Horner over all N received bits. A failed decode
// leaves cw untouched, as Decode's does.
func referenceBCHDecode(b *BCH, cw []byte) (info []byte, corrected int, ok bool) {
	f := b.field
	synd := make([]uint32, 2*b.t+1)
	anyErr := false
	for j := 1; j <= 2*b.t; j++ {
		aj := f.pow(j)
		var acc uint32
		for _, bit := range cw {
			acc = f.mul(acc, aj) ^ uint32(bit&1)
		}
		synd[j] = acc
		anyErr = anyErr || acc != 0
	}
	if !anyErr {
		return cw[:b.k], 0, true
	}
	// Berlekamp–Massey.
	lambda, prev := make([]uint32, 2*b.t+2), make([]uint32, 2*b.t+2)
	lambda[0], prev[0] = 1, 1
	L, mShift, bDisc := 0, 1, uint32(1)
	for n := 1; n <= 2*b.t; n++ {
		d := synd[n]
		for i := 1; i <= L; i++ {
			d ^= f.mul(lambda[i], synd[n-i])
		}
		if d == 0 {
			mShift++
			continue
		}
		old := append([]uint32(nil), lambda...)
		coef := f.mul(d, f.inv(bDisc))
		for i := 0; i+mShift < len(lambda); i++ {
			lambda[i+mShift] ^= f.mul(coef, prev[i])
		}
		if 2*L <= n-1 {
			L = n - L
			prev, bDisc, mShift = old, d, 1
		} else {
			mShift++
		}
	}
	if L > b.t {
		return cw[:b.k], 0, false
	}
	// Chien search.
	var pos []int
	for i := 0; i < b.nCW && len(pos) < L; i++ {
		x := f.pow(-(b.nCW - 1 - i))
		var acc uint32
		xp := uint32(1)
		for d := 0; d <= L; d++ {
			acc ^= f.mul(lambda[d], xp)
			xp = f.mul(xp, x)
		}
		if acc == 0 {
			pos = append(pos, i)
		}
	}
	if len(pos) != L {
		return cw[:b.k], 0, false
	}
	for _, i := range pos {
		cw[i] ^= 1
	}
	return cw[:b.k], L, true
}

func TestBCHMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Remainders of one, one, three and five register words.
	for _, c := range [][3]int{{8, 2, 100}, {11, 4, 500}, {14, 12, 2000}, {16, 20, 700}} {
		b, err := NewBCH(c[0], c[1], c[2])
		if err != nil {
			t.Fatal(err)
		}
		for nerr := 0; nerr <= b.t+3; nerr++ {
			cw := b.encode(randomBits(rng, b.k))
			flip(rng, cw, nerr)
			ref := append([]byte(nil), cw...)
			gotInfo, gotN, gotOK := b.Decode(cw)
			wantInfo, wantN, wantOK := referenceBCHDecode(b, ref)
			if string(gotInfo) != string(wantInfo) || gotN != wantN || gotOK != wantOK || string(cw) != string(ref) {
				t.Fatalf("BCH(m=%d,t=%d), %d errors: Decode gives (%d, %v), reference (%d, %v)",
					c[0], c[1], nerr, gotN, gotOK, wantN, wantOK)
			}
		}
	}
}

func TestBCHPaperDimensions(t *testing.T) {
	// The paper's configuration: GF(2^14), t=12, K_bch=14232 → N=14400.
	p := Default()
	b, err := NewBCH(p.BCHM, p.BCHT, p.KBch())
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != p.KLdpc {
		t.Fatalf("BCH codeword %d, want K_ldpc=%d", b.N(), p.KLdpc)
	}
	rng := rand.New(rand.NewSource(4))
	info := randomBits(rng, b.k)
	cw := b.encode(info)
	flip(rng, cw, 12)
	dec, corrected, ok := b.Decode(cw)
	if !ok || corrected != 12 {
		t.Fatalf("full-size decode: ok=%v corrected=%d", ok, corrected)
	}
	if CountBitErrors(dec, info) != 0 {
		t.Error("full-size decode left residual errors")
	}
}

func TestBCHValidation(t *testing.T) {
	if _, err := NewBCH(4, 2, 2000); err == nil {
		t.Error("oversized codeword accepted")
	}
	if _, err := NewBCH(11, 4, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBCH(3, 1, 2); err == nil {
		t.Error("unsupported field accepted")
	}
}

func randomBits(rng *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

func flip(rng *rand.Rand, bits []byte, n int) {
	done := map[int]bool{}
	for len(done) < n {
		i := rng.Intn(len(bits))
		if !done[i] {
			done[i] = true
			bits[i] ^= 1
		}
	}
}

// ParityBits returns the number of parity bits (m·t for a full-strength
// narrow-sense code).
func (b *BCH) ParityBits() int { return b.deg }
