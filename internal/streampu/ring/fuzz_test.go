package ring

import (
	"math"
	"testing"
)

// fuzzOps drives q through a byte-encoded op sequence and cross-checks
// every result against a plain-slice model queue. Each byte is one op:
// even = push (the running counter is the value), odd = pop. The base
// cursor start lets the corpus cover counters near the uint64 overflow.
func fuzzOps(t *testing.T, cap2 int, base uint64, ops []byte,
	push func(int) bool, pop func() (int, bool)) {
	t.Helper()
	var model []int
	next := 0
	for i, op := range ops {
		if op%2 == 0 {
			ok := push(next)
			wantOK := len(model) < cap2
			if ok != wantOK {
				t.Fatalf("op %d: push(%d) = %v with %d/%d queued (base %#x)",
					i, next, ok, len(model), cap2, base)
			}
			if ok {
				model = append(model, next)
			}
			next++
		} else {
			v, ok := pop()
			wantOK := len(model) > 0
			if ok != wantOK {
				t.Fatalf("op %d: pop = (%d, %v) with %d queued (base %#x)",
					i, v, ok, len(model), base)
			}
			if ok {
				if v != model[0] {
					t.Fatalf("op %d: pop = %d, model head %d (base %#x)", i, v, model[0], base)
				}
				model = model[1:]
			}
		}
	}
}

// fuzzBases spreads the 16-bit seed over interesting cursor starts: the
// origin, a mid-range value, and just below the uint64 wraparound.
func fuzzBases(seed uint16) uint64 {
	switch seed % 3 {
	case 0:
		return 0
	case 1:
		return uint64(seed) << 32
	default:
		return uint64(math.MaxUint64) - uint64(seed%7)
	}
}

func FuzzSPSCIndexArithmetic(f *testing.F) {
	f.Add(uint8(3), uint16(0), []byte{0, 0, 1, 0, 1, 1, 1})
	f.Add(uint8(1), uint16(2), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(4), uint16(5), []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, seed uint16, ops []byte) {
		q := NewSPSC[int](int(capacity%16) + 1)
		base := fuzzBases(seed)
		q.resetAt(base)
		fuzzOps(t, len(q.buf), base, ops, q.TryPush, q.TryPop)
	})
}

func FuzzMPMCIndexArithmetic(f *testing.F) {
	f.Add(uint8(3), uint16(0), []byte{0, 0, 1, 0, 1, 1, 1})
	f.Add(uint8(1), uint16(2), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(4), uint16(5), []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, seed uint16, ops []byte) {
		q := NewMPMC[int](int(capacity%16) + 1)
		base := fuzzBases(seed)
		q.resetAt(base)
		fuzzOps(t, len(q.buf), base, ops, q.TryPush, q.TryPop)
	})
}
