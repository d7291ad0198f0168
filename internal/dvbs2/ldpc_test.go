package dvbs2

import (
	"math"
	"math/rand"
	"testing"
)

func testLDPC(t *testing.T) *LDPC {
	t.Helper()
	l, err := NewLDPC(Test())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// encode returns the systematic codeword of info: information bits
// followed by accumulated parity.
func (l *LDPC) encode(info []byte) []byte {
	cw := make([]byte, l.n)
	l.encodeInto(cw, info)
	return cw
}

func TestLDPCConstruction(t *testing.T) {
	l := testLDPC(t)
	if l.N() != 1620 || l.K() != 1440 {
		t.Fatalf("dimensions (%d,%d)", l.N(), l.K())
	}
	// Every information bit has dv check connections; every check's row
	// ends in its accumulator bits p[c−1] (absent for c = 0) and p[c], so
	// the edge count is K·dv plus 2m − 1.
	m := l.N() - l.K()
	if want := l.K()*3 + 2*m - 1; len(l.rows) != want {
		t.Errorf("edges = %d, want %d", len(l.rows), want)
	}
	for c := 0; c < m; c++ {
		row := l.rows[l.rowStart[c]:l.rowStart[c+1]]
		if row[len(row)-1] != int32(l.K()+c) || c > 0 && row[len(row)-2] != int32(l.K()+c-1) {
			t.Fatalf("check %d: row %v does not end in its accumulator bits", c, row)
		}
	}
	for v, cs := range l.varChecks {
		if len(cs) != 3 {
			t.Fatalf("info bit %d has %d checks, want 3", v, len(cs))
		}
	}
	if _, err := NewLDPC(Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestLDPCEncodeSatisfiesChecks(t *testing.T) {
	l := testLDPC(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		info := randomBits(rng, l.K())
		cw := l.encode(info)
		if len(cw) != l.N() {
			t.Fatalf("codeword length %d", len(cw))
		}
		if !l.CheckSyndrome(cw) {
			t.Fatalf("trial %d: encoder output fails the parity checks", trial)
		}
		// Systematic: info bits preserved.
		if CountBitErrors(cw[:l.K()], info) != 0 {
			t.Fatal("encoder is not systematic")
		}
	}
	// A corrupted codeword must fail the syndrome check.
	info := randomBits(rng, l.K())
	cw := l.encode(info)
	cw[7] ^= 1
	if l.CheckSyndrome(cw) {
		t.Error("syndrome check passed on a corrupted codeword")
	}
}

// bpskLLR converts codeword bits to noisy channel LLRs at the given noise
// standard deviation (BPSK mapping per bit: 0 → +1, 1 → −1).
func bpskLLR(rng *rand.Rand, cw []byte, sigma float64) []float64 {
	llr := make([]float64, len(cw))
	for i, b := range cw {
		x := 1.0
		if b&1 == 1 {
			x = -1
		}
		y := x + sigma*rng.NormFloat64()
		llr[i] = 2 * y / (sigma * sigma)
	}
	return llr
}

func TestLDPCDecodeClean(t *testing.T) {
	l := testLDPC(t)
	d := l.NewDecoder()
	rng := rand.New(rand.NewSource(6))
	info := randomBits(rng, l.K())
	cw := l.encode(info)
	llr := bpskLLR(rng, cw, 0.05) // essentially noiseless
	hard, res := d.Decode(llr)
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("clean decode: %+v", res)
	}
	if CountBitErrors(hard, cw) != 0 {
		t.Error("clean decode corrupted the codeword")
	}
}

func TestLDPCDecodeCorrectsNoise(t *testing.T) {
	// Rate 8/9 QPSK needs a fairly clean channel; at sigma=0.42
	// (Eb/N0 ≈ 8 dB) the decoder should fix all flips in a few
	// iterations for most frames.
	l := testLDPC(t)
	d := l.NewDecoder()
	rng := rand.New(rand.NewSource(7))
	okFrames := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		info := randomBits(rng, l.K())
		cw := l.encode(info)
		llr := bpskLLR(rng, cw, 0.42)
		// Confirm the channel actually introduced hard-decision errors.
		preErrs := 0
		for i, v := range llr {
			if (v < 0) != (cw[i] == 1) {
				preErrs++
			}
		}
		hard, res := d.Decode(llr)
		if res.Converged && CountBitErrors(hard, cw) == 0 {
			okFrames++
			if preErrs > 0 && res.Iterations < 1 {
				t.Fatal("impossible iteration count")
			}
		}
	}
	if okFrames < trials*3/4 {
		t.Errorf("decoder fixed only %d/%d noisy frames", okFrames, trials)
	}
}

func TestLDPCEarlyStopSavesIterations(t *testing.T) {
	l := testLDPC(t)
	d := l.NewDecoder()
	rng := rand.New(rand.NewSource(8))
	info := randomBits(rng, l.K())
	cw := l.encode(info)
	clean := bpskLLR(rng, cw, 0.05)
	_, resClean := d.Decode(clean)
	noisy := bpskLLR(rng, cw, 0.5)
	_, resNoisy := d.Decode(noisy)
	if resClean.Iterations > resNoisy.Iterations && resNoisy.Converged {
		t.Errorf("clean frame used %d iterations, noisy only %d",
			resClean.Iterations, resNoisy.Iterations)
	}
	if resClean.Iterations != 1 {
		t.Errorf("clean frame should stop after 1 iteration, used %d", resClean.Iterations)
	}
}

func TestLDPCIterationCap(t *testing.T) {
	l := testLDPC(t)
	d := l.NewDecoder()
	rng := rand.New(rand.NewSource(9))
	// Garbage input: decoder must stop at the iteration cap, unconverged.
	llr := make([]float64, l.N())
	for i := range llr {
		llr[i] = rng.NormFloat64() * 0.1
	}
	_, res := d.Decode(llr)
	if res.Converged {
		t.Skip("random LLRs happened to converge (vanishingly unlikely)")
	}
	if res.Iterations != 10 {
		t.Errorf("iterations = %d, want the cap 10", res.Iterations)
	}
}

func TestLDPCFullSizeRoundTrip(t *testing.T) {
	l, err := NewLDPC(Default())
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != 16200 || l.K() != 14400 {
		t.Fatalf("full-size dimensions (%d,%d)", l.N(), l.K())
	}
	d := l.NewDecoder()
	rng := rand.New(rand.NewSource(10))
	info := randomBits(rng, l.K())
	cw := l.encode(info)
	if !l.CheckSyndrome(cw) {
		t.Fatal("full-size encoder fails parity")
	}
	hard, res := d.Decode(bpskLLR(rng, cw, 0.3))
	if !res.Converged || CountBitErrors(hard, cw) != 0 {
		t.Fatalf("full-size decode failed: %+v, %d errors", res, CountBitErrors(hard, cw))
	}
}

func TestDecoderScratchIsolation(t *testing.T) {
	// Two decoders over the same code must not share state.
	l := testLDPC(t)
	d1, d2 := l.NewDecoder(), l.NewDecoder()
	rng := rand.New(rand.NewSource(11))
	infoA := randomBits(rng, l.K())
	infoB := randomBits(rng, l.K())
	cwA, cwB := l.encode(infoA), l.encode(infoB)
	hardA, _ := d1.Decode(bpskLLR(rng, cwA, 0.1))
	hardB, _ := d2.Decode(bpskLLR(rng, cwB, 0.1))
	if CountBitErrors(hardA, cwA) != 0 || CountBitErrors(hardB, cwB) != 0 {
		t.Fatal("decodes failed")
	}
	if CountBitErrors(hardA, hardB) == 0 {
		t.Fatal("distinct frames decoded identically — scratch shared?")
	}
}

func TestLDPCDecodeRejectsWrongLength(t *testing.T) {
	l := testLDPC(t)
	d := l.NewDecoder()
	defer func() {
		if recover() == nil {
			t.Error("wrong-length LLR slice accepted")
		}
	}()
	d.Decode(make([]float64, 3))
}

func TestEncodePanicsOnWrongLength(t *testing.T) {
	l := testLDPC(t)
	defer func() {
		if recover() == nil {
			t.Error("wrong-length info accepted")
		}
	}()
	l.encode(make([]byte, 3))
}

func TestNormalizationFactorApplied(t *testing.T) {
	// Indirect check: with norm = 0 the decoder can never flip a bit, so
	// a noisy frame stays unconverged; with the default 0.75 it converges.
	p := Test()
	p.LdpcNorm = 0
	l0, err := NewLDPC(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	info := randomBits(rng, l0.K())
	cw := l0.encode(info)
	llr := bpskLLR(rng, cw, 0.5)
	// Force some hard errors.
	hardErrs := 0
	for i := range llr {
		if (llr[i] < 0) != (cw[i] == 1) {
			hardErrs++
		}
	}
	if hardErrs == 0 {
		t.Skip("no channel errors at this seed")
	}
	_, res0 := l0.NewDecoder().Decode(llr)
	if res0.Converged {
		t.Error("zero-normalization decoder converged on a noisy frame")
	}
	if math.Abs(Test().LdpcNorm-0.75) > 1e-12 {
		t.Error("default normalization changed")
	}
}

// referenceLDPC is the layered decoder as it ran before Decode walked one
// flat edge list with branch-free signs: one message row per check, rowVar
// to map a connection to its bit, and a branch per sign. Decode must equal
// it bit for bit — hard decisions, iterations, every posterior and every
// message — on any input, NaN, ±Inf and −0 included.
type referenceLDPC struct {
	l         *LDPC
	checkVars [][]int32 // the information bits of each check
	msg       [][]float64
	post      []float64
	hard      []byte
	res       DecodeResult
}

// referenceLDPCDecode decodes llr with fresh scratch and returns the
// decoder's state after the call.
func referenceLDPCDecode(l *LDPC, llr []float64) *referenceLDPC {
	d := &referenceLDPC{l: l, checkVars: make([][]int32, l.m), msg: make([][]float64, l.m),
		post: append([]float64(nil), llr...), hard: make([]byte, l.n)}
	for v, checks := range l.varChecks {
		for _, c := range checks {
			d.checkVars[c] = append(d.checkVars[c], int32(v))
		}
	}
	for c := range d.msg {
		d.msg[c] = make([]float64, len(d.checkVars[c])+2)
	}
	for it := 1; it <= l.iters; it++ {
		d.res.Iterations = it
		for c := 0; c < l.m; c++ {
			vars := d.checkVars[c]
			row := d.msg[c]
			deg := len(vars) + 2
			if c == 0 {
				deg = len(vars) + 1 // first accumulator row has no p[c-1]
			}
			min1, min2 := math.MaxFloat64, math.MaxFloat64
			min1Idx := -1
			sign := 1.0
			for j := 0; j < deg; j++ {
				v := d.rowVar(c, j)
				in := d.post[v] - row[j]
				row[j] = in
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
		for v := 0; v < l.n; v++ {
			if d.post[v] < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if d.checkSyndrome(d.hard) {
			d.res.Converged = true
			return d
		}
	}
	return d
}

// rowVar maps the j-th connection of check c to a codeword bit index:
// first the information bits of the check, then the accumulator bits
// p[c-1] (absent for c = 0) and p[c].
func (d *referenceLDPC) rowVar(c, j int) int {
	vars := d.checkVars[c]
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

func (d *referenceLDPC) checkSyndrome(cw []byte) bool {
	prev := byte(0)
	for c := 0; c < d.l.m; c++ {
		s := cw[d.l.k+c] ^ prev
		for _, v := range d.checkVars[c] {
			s ^= cw[v] & 1
		}
		if s&1 != 0 {
			return false
		}
		prev = cw[d.l.k+c]
	}
	return true
}

// specialLLRs are the inputs where a sign test can go wrong: both zeros,
// NaN, both infinities, the smallest and largest subnormals of each sign,
// and a repeated magnitude that ties the two minima.
var specialLLRs = []float64{
	math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
	1.5, -1.5, 1.5, -1.5,
}

// checkLDPCMatchesReference decodes llr with d and with referenceLDPCDecode
// and fails on the first bit that differs.
func checkLDPCMatchesReference(t testing.TB, d *Decoder, llr []float64) {
	t.Helper()
	l := d.l
	hard, res := d.Decode(llr)
	ref := referenceLDPCDecode(l, llr)
	if res != ref.res {
		t.Fatalf("result %+v, reference %+v", res, ref.res)
	}
	if string(hard) != string(ref.hard) {
		t.Fatal("hard decisions differ from the reference")
	}
	if l.CheckSyndrome(hard) != ref.checkSyndrome(hard) {
		t.Fatal("syndrome check differs from the reference")
	}
	for v, p := range d.post {
		if math.Float64bits(p) != math.Float64bits(ref.post[v]) {
			t.Fatalf("post[%d] = %v (%#x), reference %v (%#x)",
				v, p, math.Float64bits(p), ref.post[v], math.Float64bits(ref.post[v]))
		}
	}
	for c := 0; c < l.m; c++ {
		row := d.msg[l.rowStart[c]:l.rowStart[c+1]]
		for j, m := range row {
			if want := ref.msg[c][j]; math.Float64bits(m) != math.Float64bits(want) {
				t.Fatalf("check %d message %d = %v (%#x), reference %v (%#x)",
					c, j, m, math.Float64bits(m), want, math.Float64bits(want))
			}
		}
	}
}

func TestLDPCMatchesReference(t *testing.T) {
	l := testLDPC(t)
	d := l.NewDecoder() // reused: a stale message must not leak into the next frame
	rng := rand.New(rand.NewSource(13))
	var multi, failed int
	for _, sigma := range []float64{0.3, 0.5, 0.6, 0.7, 0.9} {
		for trial := 0; trial < 4; trial++ {
			llr := bpskLLR(rng, l.encode(randomBits(rng, l.K())), sigma)
			switch trial {
			case 1: // ties: every magnitude on a grid of halves
				for i := range llr {
					llr[i] = math.Round(2*llr[i]) / 2
				}
			case 2, 3: // one input in eight (trial 3: in two) special
				every := 8
				if trial == 3 {
					every = 2
				}
				for i := range llr {
					if rng.Intn(every) == 0 {
						llr[i] = specialLLRs[rng.Intn(len(specialLLRs))]
					}
				}
			}
			checkLDPCMatchesReference(t, d, llr)
			if res := referenceLDPCDecode(l, llr).res; !res.Converged {
				failed++
			} else if res.Iterations > 1 {
				multi++
			}
		}
	}
	for _, x := range specialLLRs {
		llr := make([]float64, l.N())
		for i := range llr {
			llr[i] = x
		}
		checkLDPCMatchesReference(t, d, llr)
	}
	if multi == 0 || failed == 0 {
		t.Fatalf("%d multi-iteration and %d unconverged frames: the comparison must see both", multi, failed)
	}
}
