package dvbs2

import "fmt"

// gf implements arithmetic in GF(2^m) with log/antilog tables generated
// from a primitive polynomial, as used by the BCH codec.
type gf struct {
	n   int // field order − 1 = 2^m − 1
	exp []uint32
	log []int
}

// primitivePolys maps m to a primitive polynomial of degree m over GF(2)
// (bitmask including the leading term). m=14 uses x^14+x^10+x^6+x+1, the
// polynomial of the DVB-S2 BCH field.
var primitivePolys = map[int]uint32{
	4:  0x13,
	5:  0x25,
	6:  0x43,
	7:  0x89,
	8:  0x11D,
	9:  0x211,
	10: 0x409,
	11: 0x805,
	12: 0x1053,
	13: 0x201B,
	14: 0x4443,
	15: 0x8003,
	16: 0x1100B,
}

func newGF(m int) (*gf, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("dvbs2: no primitive polynomial for GF(2^%d)", m)
	}
	n := (1 << m) - 1
	f := &gf{n: n, exp: make([]uint32, 2*n), log: make([]int, n+1)}
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = x
		f.exp[i+n] = x // duplicated to skip a mod in mul
		f.log[x] = i
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("dvbs2: polynomial %#x is not primitive for m=%d", poly, m)
	}
	f.log[0] = -1
	return f, nil
}

// mul multiplies two field elements.
func (f *gf) mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// inv returns the multiplicative inverse of a ≠ 0.
func (f *gf) inv(a uint32) uint32 {
	return f.exp[f.n-f.log[a]]
}

// pow returns α^e for the field's primitive element α (e may be any
// integer; negative exponents wrap).
func (f *gf) pow(e int) uint32 {
	e %= f.n
	if e < 0 {
		e += f.n
	}
	return f.exp[e]
}

// polyMulGF2 multiplies two polynomials over GF(2) given as bit slices
// (index = degree).
func polyMulGF2(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= bj
		}
	}
	return out
}

// minimalPoly returns the minimal polynomial over GF(2) of α^i as a bit
// slice (index = degree), computed from the cyclotomic coset of i.
func (f *gf) minimalPoly(i int) []byte {
	// Collect the coset {i, 2i, 4i, ...} mod n.
	coset := []int{}
	seen := map[int]bool{}
	for c := i % f.n; !seen[c]; c = (2 * c) % f.n {
		seen[c] = true
		coset = append(coset, c)
	}
	// Product of (x − α^c) over the coset, computed in GF(2^m); the
	// result has coefficients in GF(2).
	poly := []uint32{1} // constant polynomial 1, index = degree
	for _, c := range coset {
		root := f.pow(c)
		next := make([]uint32, len(poly)+1)
		for d, coef := range poly {
			next[d+1] ^= coef            // x · poly
			next[d] ^= f.mul(coef, root) // root · poly
		}
		poly = next
	}
	out := make([]byte, len(poly))
	for d, coef := range poly {
		if coef > 1 {
			panic(fmt.Sprintf("dvbs2: minimal polynomial has non-binary coefficient %d", coef))
		}
		out[d] = byte(coef)
	}
	return out
}
