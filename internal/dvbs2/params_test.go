package dvbs2

// Default returns the paper's configuration: DVB-S2 short FECFRAME,
// rate 8/9 (N=16200, K_ldpc=14400, K_bch=14232, t=12 over GF(2^14)),
// QPSK (MODCOD 2), 2 samples per symbol, roll-off 0.2.
func Default() Params {
	return Params{
		Q: 360, NLdpc: 16200, KLdpc: 14400,
		LdpcDv: 3, LdpcIters: 10, LdpcNorm: 0.75, LdpcSeed: 0xD5B2,
		BCHM: 14, BCHT: 12,
		SOFLen: 26, PLSCLen: 64,
		SPS: 2, RollOff: 0.2, FilterSpan: 10,
	}
}
