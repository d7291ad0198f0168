package dvbs2

// Bit-level utilities: PRBS payload generation and the frame counter
// embedded at the head of every baseband frame so that the receiver-side
// monitor can regenerate the reference data from the decoded bits alone
// (which keeps the monitor task stateless/replicable, as in Table III).

// CounterBits is the width of the frame counter embedded in each BB frame.
const CounterBits = 32

// prbsStep advances the 23-bit PRBS x^23 + x^18 + 1 (the DVB PRBS
// polynomial) by one bit and returns it.
func prbsStep(state *uint32) byte {
	s := *state
	bit := ((s >> 22) ^ (s >> 17)) & 1
	*state = ((s << 1) | bit) & 0x7FFFFF
	return byte(bit)
}

// prbsSeed derives a non-zero PRBS state from a frame counter.
func prbsSeed(counter uint32) uint32 {
	s := (counter*2654435761 + 0x5A17) & 0x7FFFFF
	if s == 0 {
		s = 0x4A80
	}
	return s
}

// fillBBFrame writes the information bits (one bit per byte, values 0/1)
// of baseband frame number counter into the caller's buffer of K_bch
// bits: a CounterBits-bit big-endian counter followed by PRBS payload
// seeded from the counter.
func fillBBFrame(bits []byte, counter uint32) {
	for i := 0; i < CounterBits; i++ {
		bits[i] = byte((counter >> (CounterBits - 1 - i)) & 1)
	}
	state := prbsSeed(counter)
	for i := CounterBits; i < len(bits); i++ {
		bits[i] = prbsStep(&state)
	}
}

// DecodeCounter recovers the frame counter from the first CounterBits of
// a decoded BB frame.
func DecodeCounter(bits []byte) uint32 {
	var c uint32
	for i := 0; i < CounterBits && i < len(bits); i++ {
		c = c<<1 | uint32(bits[i]&1)
	}
	return c
}

// CountBitErrors compares two equal-length bit slices and returns the
// number of differing positions. Extra trailing bits in the longer slice
// are counted as errors.
func CountBitErrors(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i]&1 != b[i]&1 {
			errs++
		}
	}
	if len(a) > n {
		errs += len(a) - n
	}
	if len(b) > n {
		errs += len(b) - n
	}
	return errs
}
