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
	q       int
	iters   int
	norm    float64

	// checkVars[c] lists the information-bit indices participating in
	// parity check c (the accumulator terms p[c-1], p[c] are implicit).
	checkVars [][]int32
	// varChecks[v] lists the checks each information bit participates in
	// (used by the encoder; the decoder walks checkVars).
	varChecks [][]int32
}

// NewLDPC constructs the codec for the given parameters.
func NewLDPC(p Params) (*LDPC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &LDPC{
		n: p.NLdpc, k: p.KLdpc, m: p.NLdpc - p.KLdpc,
		q: p.Q, iters: p.LdpcIters, norm: p.LdpcNorm,
	}
	rng := rand.New(rand.NewSource(p.LdpcSeed))
	l.checkVars = make([][]int32, l.m)
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
				l.checkVars[c] = append(l.checkVars[c], int32(v))
			}
		}
	}
	return l, nil
}

// N returns the codeword length in bits.
func (l *LDPC) N() int { return l.n }

// K returns the information length in bits.
func (l *LDPC) K() int { return l.k }

// Encode appends parity to info (length K) and returns the systematic
// codeword (length N): information bits followed by accumulated parity.
func (l *LDPC) Encode(info []byte) []byte {
	cw := make([]byte, l.n)
	l.encodeInto(cw, info)
	return cw
}

// encodeInto is Encode into the caller's buffer of N bits.
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
	prev := byte(0)
	for c := 0; c < l.m; c++ {
		s := cw[l.k+c] ^ prev
		for _, v := range l.checkVars[c] {
			s ^= cw[v] & 1
		}
		if s&1 != 0 {
			return false
		}
		prev = cw[l.k+c]
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
	// msg[c][j]: last check-to-variable message for the j-th connection
	// of check c. Layout: info connections, then [prev parity, parity].
	msg  [][]float64
	post []float64 // posterior LLRs
	hard []byte
}

// NewDecoder allocates decode scratch for this code.
func (l *LDPC) NewDecoder() *Decoder {
	d := &Decoder{l: l, msg: make([][]float64, l.m), post: make([]float64, l.n), hard: make([]byte, l.n)}
	for c := range d.msg {
		d.msg[c] = make([]float64, len(l.checkVars[c])+2)
	}
	return d
}

// Decode runs horizontal layered normalized min-sum on the channel LLRs
// (length N, positive = bit 0 more likely) and returns the hard-decision
// codeword bits plus decode statistics. The returned slice aliases the
// decoder's scratch; copy it before the next Decode call if needed.
func (d *Decoder) Decode(llr []float64) ([]byte, DecodeResult) {
	l := d.l
	if len(llr) != l.n {
		panic(fmt.Sprintf("dvbs2: LDPC decode: %d LLRs, want %d", len(llr), l.n))
	}
	copy(d.post, llr)
	for c := range d.msg {
		row := d.msg[c]
		for j := range row {
			row[j] = 0
		}
	}
	res := DecodeResult{}
	for it := 1; it <= l.iters; it++ {
		res.Iterations = it
		// Horizontal layered sweep: each check c updates its neighbors
		// using the freshest posteriors.
		for c := 0; c < l.m; c++ {
			vars := l.checkVars[c]
			row := d.msg[c]
			deg := len(vars) + 2
			if c == 0 {
				deg = len(vars) + 1 // first accumulator row has no p[c-1]
			}
			// Gather variable-to-check messages and find the two minima.
			min1, min2 := math.MaxFloat64, math.MaxFloat64
			min1Idx := -1
			sign := 1.0
			for j := 0; j < deg; j++ {
				v := d.rowVar(c, j)
				in := d.post[v] - row[j]
				row[j] = in // temporarily store v→c message
				a := math.Abs(in)
				if in < 0 {
					sign = -sign
				}
				if a < min1 {
					min2, min1 = min1, a
					min1Idx = j
				} else if a < min2 {
					min2 = a
				}
			}
			// Scatter normalized check-to-variable messages.
			for j := 0; j < deg; j++ {
				v := d.rowVar(c, j)
				in := row[j]
				mag := min1
				if j == min1Idx {
					mag = min2
				}
				out := l.norm * mag
				if (in < 0) != (sign < 0) {
					out = -out
				}
				row[j] = out
				d.post[v] = in + out
			}
		}
		// Early-stop criterion: hard decisions satisfy all checks.
		for v := 0; v < l.n; v++ {
			if d.post[v] < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if l.CheckSyndrome(d.hard) {
			res.Converged = true
			return d.hard, res
		}
	}
	return d.hard, res
}

// rowVar maps the j-th connection of check c to a codeword bit index:
// first the information bits of the check, then the accumulator bits
// p[c-1] (absent for c = 0) and p[c].
func (d *Decoder) rowVar(c, j int) int {
	vars := d.l.checkVars[c]
	if j < len(vars) {
		return int(vars[j])
	}
	j -= len(vars)
	if c == 0 {
		return d.l.k + c // only p[0]
	}
	if j == 0 {
		return d.l.k + c - 1
	}
	return d.l.k + c
}
