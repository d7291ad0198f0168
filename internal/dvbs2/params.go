// Package dvbs2 implements a functional DVB-S2-like digital communication
// transceiver in pure Go: BB/PL scramblers, BCH and LDPC coding, QPSK
// modulation, root-raised-cosine filtering, timing/frame/frequency
// synchronization, and a baseband channel model. Its receiver decomposes
// into the 23-task chain profiled in the paper's Table III and plugs into
// the internal/streampu runtime, so the paper's schedules execute a real
// signal-processing workload.
//
// Substitutions versus the ETSI standard (see DESIGN.md): the LDPC
// parity-check matrix is a synthetic quasi-cyclic IRA construction with
// the standard's short-frame dimensions instead of the ETSI annex address
// tables, and the BCH code is a generic narrow-sense BCH over GF(2^14)
// built from a primitive polynomial rather than the standard's exact
// generator product. The decoder kernels (horizontal layered normalized
// min-sum with early stopping; syndrome/Berlekamp–Massey/Chien HIHO) are
// real implementations.
package dvbs2

import "fmt"

// Params collects every numerological parameter of the transceiver.
type Params struct {
	// Q is the quasi-cyclic group size of the LDPC code (360 in DVB-S2).
	Q int
	// NLdpc and KLdpc are the LDPC codeword and information lengths in
	// bits; both must be multiples of Q.
	NLdpc, KLdpc int
	// LdpcDv is the variable-node degree of information bits.
	LdpcDv int
	// LdpcIters bounds the decoder iterations (the paper uses 10).
	LdpcIters int
	// LdpcNorm is the normalization factor of the min-sum decoder.
	LdpcNorm float64
	// LdpcSeed seeds the synthetic parity-check construction.
	LdpcSeed int64

	// BCHM selects the BCH field GF(2^BCHM); BCHT is the correction
	// capability t. The BCH codeword length is KLdpc and the BCH
	// information length KBch = KLdpc − BCHM·BCHT.
	BCHM, BCHT int

	// SOFLen and PLSCLen are the physical-layer header lengths in
	// symbols (26 + 64 = 90 in DVB-S2).
	SOFLen, PLSCLen int

	// SPS is the number of samples per symbol of the sample-rate
	// sections (2 in the paper's receiver).
	SPS int
	// RollOff and FilterSpan parameterize the root-raised-cosine filter
	// (roll-off factor and half-length in symbols).
	RollOff    float64
	FilterSpan int
}

// Test returns the paper's configuration reduced proportionally (N=1620,
// K_ldpc=1440, BCH over GF(2^11) with t=4). It is the one every command
// runs; the paper's full short FECFRAME is Default, which only tests and
// micro-benchmarks use (params_test.go).
func Test() Params {
	return Params{
		Q: 36, NLdpc: 1620, KLdpc: 1440,
		LdpcDv: 3, LdpcIters: 10, LdpcNorm: 0.75, LdpcSeed: 0xD5B2,
		BCHM: 11, BCHT: 4,
		SOFLen: 26, PLSCLen: 64,
		SPS: 2, RollOff: 0.2, FilterSpan: 10,
	}
}

// KBch returns the BCH (outer code) information length in bits.
func (p Params) KBch() int { return p.KLdpc - p.BCHM*p.BCHT }

// HeaderSymbols returns the physical-layer header length in symbols.
func (p Params) HeaderSymbols() int { return p.SOFLen + p.PLSCLen }

// PayloadSymbols returns the number of QPSK payload symbols per frame.
func (p Params) PayloadSymbols() int { return p.NLdpc / 2 }

// FrameSymbols returns the total PLFRAME length in symbols.
func (p Params) FrameSymbols() int { return p.HeaderSymbols() + p.PayloadSymbols() }

// FrameSamples returns the PLFRAME length in channel samples.
func (p Params) FrameSamples() int { return p.FrameSymbols() * p.SPS }

// Validate reports configuration inconsistencies.
func (p Params) Validate() error {
	switch {
	case p.Q <= 0 || p.NLdpc <= 0 || p.KLdpc <= 0:
		return fmt.Errorf("dvbs2: non-positive code sizes %+v", p)
	case p.NLdpc%p.Q != 0 || p.KLdpc%p.Q != 0:
		return fmt.Errorf("dvbs2: N=%d K=%d not multiples of Q=%d", p.NLdpc, p.KLdpc, p.Q)
	case p.KLdpc >= p.NLdpc:
		return fmt.Errorf("dvbs2: K=%d must be below N=%d", p.KLdpc, p.NLdpc)
	case p.NLdpc%2 != 0:
		return fmt.Errorf("dvbs2: N=%d must be even for QPSK", p.NLdpc)
	case p.LdpcDv < 2:
		return fmt.Errorf("dvbs2: variable degree %d too small", p.LdpcDv)
	case p.BCHM < 4 || p.BCHM > 16:
		return fmt.Errorf("dvbs2: BCH field GF(2^%d) unsupported", p.BCHM)
	case p.KLdpc > (1<<p.BCHM)-1:
		return fmt.Errorf("dvbs2: BCH codeword %d exceeds field bound %d", p.KLdpc, (1<<p.BCHM)-1)
	case p.BCHT < 1:
		return fmt.Errorf("dvbs2: BCH t=%d", p.BCHT)
	case p.KBch() <= 32:
		return fmt.Errorf("dvbs2: K_bch=%d leaves no payload", p.KBch())
	case p.SPS < 2:
		return fmt.Errorf("dvbs2: %d samples per symbol (< 2) breaks timing recovery", p.SPS)
	case p.RollOff <= 0 || p.RollOff >= 1:
		return fmt.Errorf("dvbs2: roll-off %v outside (0,1)", p.RollOff)
	case p.FilterSpan < 2:
		return fmt.Errorf("dvbs2: filter span %d too short", p.FilterSpan)
	case p.SOFLen < 8 || p.PLSCLen < 0:
		return fmt.Errorf("dvbs2: header lengths %d/%d invalid", p.SOFLen, p.PLSCLen)
	}
	return nil
}
