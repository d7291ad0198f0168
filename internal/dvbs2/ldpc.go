package dvbs2

import (
	"fmt"
	"math"
	"math/rand"
)

// LDPC is a systematic irregular repeat-accumulate (IRA) LDPC codec with
// a quasi-cyclic structure mirroring DVB-S2's: information bits connect
// to parity checks through Q-column circulant groups, and parity bits
// form a dual-diagonal accumulator chain. Encoding is linear-time parity
// accumulation; decoding is horizontal layered normalized min-sum with an
// early-stop syndrome check — the paper's "Decoder LDPC – decode SIHO"
// kernel (soft input, hard output).
//
// The circulant offsets are drawn from a seeded generator instead of the
// ETSI annex tables (see DESIGN.md's substitution list); dimensions and
// structure match the standard's short FECFRAME rate-8/9 code.
type LDPC struct {
	n, k, m int // codeword, info, parity lengths
	iters   int
	norm    float64

	// rows[rowStart[c]:rowStart[c+1]] lists the codeword bits of parity
	// check c: its information bits, then the accumulator bits p[c−1]
	// (absent for c = 0) and p[c]. The decoder's messages share the layout.
	rows     []int32
	rowStart []int32
	// varChecks[v] lists the checks each information bit participates in
	// (used by the encoder; the decoder walks rows).
	varChecks [][]int32
}

// NewLDPC constructs the codec for the given parameters.
func NewLDPC(p Params) (*LDPC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &LDPC{
		n: p.NLdpc, k: p.KLdpc, m: p.NLdpc - p.KLdpc,
		iters: p.LdpcIters, norm: p.LdpcNorm,
	}
	rng := rand.New(rand.NewSource(p.LdpcSeed))
	checkVars := make([][]int32, l.m)
	l.varChecks = make([][]int32, l.k)
	groups := l.k / p.Q
	// DVB-S2-style expansion: for each group of Q information columns,
	// draw dv base check addresses x_j; column t of the group connects to
	// checks (x_j + t·qFactor) mod m, where qFactor = m / Q.
	qFactor := l.m / p.Q
	if qFactor == 0 {
		return nil, fmt.Errorf("dvbs2: parity length %d below group size %d", l.m, p.Q)
	}
	for g := 0; g < groups; g++ {
		base := make([]int, p.LdpcDv)
		for j := range base {
			for {
				cand := rng.Intn(l.m)
				dup := false
				for _, b := range base[:j] {
					// Avoid duplicate rows within a column (4-cycles
					// through the same pair are still possible, as in
					// random QC codes).
					if (cand-b)%l.m == 0 {
						dup = true
						break
					}
				}
				if !dup {
					base[j] = cand
					break
				}
			}
		}
		for t := 0; t < p.Q; t++ {
			v := g*p.Q + t
			l.varChecks[v] = make([]int32, p.LdpcDv)
			for j, b := range base {
				c := (b + t*qFactor) % l.m
				l.varChecks[v][j] = int32(c)
				checkVars[c] = append(checkVars[c], int32(v))
			}
		}
	}
	l.rowStart = make([]int32, l.m+1)
	l.rows = make([]int32, 0, l.k*p.LdpcDv+2*l.m-1)
	for c, vars := range checkVars {
		l.rows = append(l.rows, vars...)
		if c > 0 {
			l.rows = append(l.rows, int32(l.k+c-1))
		}
		l.rows = append(l.rows, int32(l.k+c))
		l.rowStart[c+1] = int32(len(l.rows))
	}
	return l, nil
}

// N returns the codeword length in bits.
func (l *LDPC) N() int { return l.n }

// K returns the information length in bits.
func (l *LDPC) K() int { return l.k }

// encodeInto writes the systematic codeword of info (length K) into cw
// (length N): information bits followed by accumulated parity.
func (l *LDPC) encodeInto(cw, info []byte) {
	if len(info) != l.k || len(cw) != l.n {
		panic(fmt.Sprintf("dvbs2: LDPC encode: %d info bits into %d, want %d into %d",
			len(info), len(cw), l.k, l.n))
	}
	copy(cw, info)
	parity := cw[l.k:]
	clear(parity)
	// p[c] = p[c-1] ⊕ (⊕ info bits of check c): dual-diagonal accumulator.
	for v, checks := range l.varChecks {
		if info[v]&1 == 0 {
			continue
		}
		for _, c := range checks {
			parity[c] ^= 1
		}
	}
	for c := 1; c < l.m; c++ {
		parity[c] ^= parity[c-1]
	}
}

// CheckSyndrome reports whether the hard decisions in cw satisfy every
// parity check.
func (l *LDPC) CheckSyndrome(cw []byte) bool {
	for c := 0; c < l.m; c++ {
		var s byte
		for _, v := range l.rows[l.rowStart[c]:l.rowStart[c+1]] {
			s ^= cw[v]
		}
		if s&1 != 0 {
			return false
		}
	}
	return true
}

// DecodeResult reports the outcome of an LDPC decode.
type DecodeResult struct {
	// Iterations actually executed (≤ the configured maximum).
	Iterations int
	// Converged is true when the syndrome check passed (early stop).
	Converged bool
}

// Decoder holds per-instance decode scratch so replicated pipeline
// workers can decode concurrently. Create one per worker with
// l.NewDecoder.
type Decoder struct {
	l *LDPC
	// msg[e]: last check-to-variable message along edge e of l.rows.
	msg  []float64
	post []float64 // posterior LLRs
	hard []byte
}

// NewDecoder allocates decode scratch for this code.
func (l *LDPC) NewDecoder() *Decoder {
	return &Decoder{l: l, msg: make([]float64, len(l.rows)), post: make([]float64, l.n), hard: make([]byte, l.n)}
}

// Decode runs horizontal layered normalized min-sum on the channel LLRs
// (length N, positive = bit 0 more likely) and returns the hard-decision
// codeword bits plus decode statistics. The returned slice aliases the
// decoder's scratch; copy it before the next Decode call if needed.
//
// Signs never branch: a row's sign is the parity of its negative inputs,
// and an output takes its sign by flipping bit 63, which is what Go's
// unary minus does.
func (d *Decoder) Decode(llr []float64) ([]byte, DecodeResult) {
	l := d.l
	if len(llr) != l.n {
		panic(fmt.Sprintf("dvbs2: LDPC decode: %d LLRs, want %d", len(llr), l.n))
	}
	post := d.post
	copy(post, llr)
	clear(d.msg)
	res := DecodeResult{}
	for it := 1; it <= l.iters; it++ {
		res.Iterations = it
		// Horizontal layered sweep: each check c updates its neighbors
		// using the freshest posteriors.
		for c := 0; c < l.m; c++ {
			lo, hi := l.rowStart[c], l.rowStart[c+1]
			vars := l.rows[lo:hi]
			row := d.msg[lo:hi][:len(vars)]
			// Gather variable-to-check messages and find the two minima.
			min1, min2 := math.MaxFloat64, math.MaxFloat64
			min1Idx := -1
			var neg uint64 // parity of the negative inputs
			for j, v := range vars {
				in := post[v] - row[j]
				row[j] = in // temporarily store v→c message
				a := math.Abs(in)
				neg ^= isNeg(in)
				if a < min1 {
					min2, min1 = min1, a
					min1Idx = j
				} else if a < min2 {
					min2 = a
				}
			}
			// Scatter normalized check-to-variable messages.
			for j, v := range vars {
				in := row[j]
				mag := min1
				if j == min1Idx {
					mag = min2
				}
				out := math.Float64frombits(math.Float64bits(l.norm*mag) ^ (isNeg(in)^neg)<<63)
				row[j] = out
				post[v] = in + out
			}
		}
		// Early-stop criterion: hard decisions satisfy all checks.
		hard := d.hard[:len(post)]
		for v, p := range post {
			hard[v] = byte(isNeg(p))
		}
		if l.CheckSyndrome(d.hard) {
			res.Converged = true
			return d.hard, res
		}
	}
	return d.hard, res
}

// isNeg is 1 when x < 0 and 0 otherwise — 0 for −0 and NaN, so not the
// raw sign bit. It compiles to a compare and a set, without a branch.
func isNeg(x float64) uint64 {
	var n uint64
	if x < 0 {
		n = 1
	}
	return n
}
