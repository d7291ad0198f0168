package dvbs2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBBFrameCounterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func() bool {
		counter := rng.Uint32()
		k := CounterBits + 1 + rng.Intn(500)
		bits := GenerateBBFrame(counter, k)
		if len(bits) != k {
			return false
		}
		return DecodeCounter(bits) == counter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBBFrameDeterministicPerCounter(t *testing.T) {
	a := GenerateBBFrame(7, 200)
	b := GenerateBBFrame(7, 200)
	if CountBitErrors(a, b) != 0 {
		t.Error("same counter produced different frames")
	}
	c := GenerateBBFrame(8, 200)
	if CountBitErrors(a, c) == 0 {
		t.Error("different counters produced identical frames")
	}
}

func TestBBFramePayloadIsBalanced(t *testing.T) {
	bits := GenerateBBFrame(3, 10000)
	ones := 0
	for _, b := range bits[CounterBits:] {
		ones += int(b)
	}
	frac := float64(ones) / float64(len(bits)-CounterBits)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("PRBS ones fraction %v", frac)
	}
}

func TestCountBitErrors(t *testing.T) {
	if got := CountBitErrors([]byte{0, 1, 1}, []byte{0, 1, 0}); got != 1 {
		t.Errorf("errors = %d", got)
	}
	if got := CountBitErrors([]byte{0, 1}, []byte{0, 1, 1, 1}); got != 2 {
		t.Errorf("length mismatch errors = %d", got)
	}
	if got := CountBitErrors([]byte{1, 1, 1}, []byte{1}); got != 2 {
		t.Errorf("reverse length mismatch = %d", got)
	}
	if got := CountBitErrors(nil, nil); got != 0 {
		t.Errorf("empty = %d", got)
	}
}

func TestDecodeCounterShortSlice(t *testing.T) {
	// Shorter than CounterBits: decode what is there, no panic.
	if got := DecodeCounter([]byte{1, 0, 1}); got != 5 {
		t.Errorf("short decode = %d", got)
	}
}

func TestPrbsSeedNeverZero(t *testing.T) {
	for c := uint32(0); c < 5000; c++ {
		if prbsSeed(c) == 0 {
			t.Fatalf("zero PRBS state for counter %d", c)
		}
	}
}

// GenerateBBFrame returns the kBch information bits of baseband frame
// number counter (fillBBFrame into a new buffer).
func GenerateBBFrame(counter uint32, kBch int) []byte {
	bits := make([]byte, kBch)
	fillBBFrame(bits, counter)
	return bits
}
