package dvbs2

import (
	"math"
	"math/cmplx"
)

// Synchronization blocks of the receiver front end: automatic gain
// control, coarse carrier-frequency recovery (4th-power delay-and-
// multiply with an NCO), Gardner timing recovery with cubic Lagrange
// interpolation, differential-correlation frame synchronization, and the
// fine carrier estimators (Luise&Reggiannini-style over the known header,
// plus per-frame phase estimation). All of these carry loop state across
// frames — which is exactly why Table III marks them sequential.

// AGC is a streaming automatic gain controller: it tracks the RMS of its
// input with an exponential average and scales toward the target.
type AGC struct {
	Target float64
	Alpha  float64
	est    float64
}

// NewAGC creates an AGC with target RMS target (e.g. 1.0).
func NewAGC(target float64) *AGC {
	return &AGC{Target: target, Alpha: 0.5, est: 0}
}

// Process scales the block in place and returns the gain it applied.
func (a *AGC) Process(x []complex128) float64 {
	if len(x) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	rms := math.Sqrt(sum / float64(len(x)))
	if a.est == 0 {
		a.est = rms
	} else {
		a.est = (1-a.Alpha)*a.est + a.Alpha*rms
	}
	g := 1.0
	if a.est > 1e-12 {
		g = a.Target / a.est
	}
	for i := range x {
		x[i] *= complex(g, 0)
	}
	return g
}

// CoarseFreqSync estimates and removes carrier-frequency offset on the
// oversampled stream using a 4th-power delay-and-multiply estimator
// (QPSK's modulation is removed by the 4th power) driving an NCO whose
// phase is continuous across frames. The delay is one symbol period
// (sps samples) rather than one sample: the 4th power of a pulse-shaped
// signal carries a strong symbol-rate timing tone, which a symbol-spaced
// lag rejects (its phase contribution is a multiple of 2π).
type CoarseFreqSync struct {
	Alpha float64 // estimator smoothing factor
	// Slew bounds the NCO frequency change per processed block (cycles
	// per sample). The raw 4th-power estimate is noisy at moderate SNR;
	// without a slew limit the NCO takes frequency steps mid-frame that
	// the (per-frame, header-based) fine synchronizer cannot model, and
	// the end of those frames smears. The limit still lets the loop
	// acquire a static CFO in tens of blocks.
	Slew  float64
	lag   int     // correlation lag in samples (= sps)
	fHat  float64 // estimated CFO, cycles per sample
	phase float64 // NCO phase, radians
}

// NewCoarseFreqSync returns a coarse CFO synchronizer for a stream at
// sps samples per symbol.
func NewCoarseFreqSync(sps int) *CoarseFreqSync {
	if sps < 1 {
		sps = 1
	}
	return &CoarseFreqSync{Alpha: 0.05, Slew: 1e-5, lag: sps}
}

// Estimate returns the current CFO estimate in cycles/sample.
func (c *CoarseFreqSync) Estimate() float64 { return c.fHat }

// Process updates the CFO estimate from the block and derotates it in
// place.
func (c *CoarseFreqSync) Process(x []complex128) {
	if len(x) > c.lag {
		var acc complex128
		for i := c.lag; i < len(x); i++ {
			acc += pow4(x[i]) * cmplx.Conj(pow4(x[i-c.lag]))
		}
		if cmplx.Abs(acc) > 1e-12 {
			est := cmplx.Phase(acc) / (4 * 2 * math.Pi * float64(c.lag))
			step := c.Alpha * (est - c.fHat)
			if c.Slew > 0 {
				if step > c.Slew {
					step = c.Slew
				} else if step < -c.Slew {
					step = -c.Slew
				}
			}
			c.fHat += step
		}
	}
	var args [64]float64
	for base := 0; base < len(x); base += len(args) {
		blk := x[base:min(base+len(args), len(x))]
		for k := range blk {
			args[k] = -c.phase
			c.phase += 2 * math.Pi * c.fHat
		}
		rotate(blk, args[:len(blk)])
	}
	// Keep the phase bounded.
	c.phase = math.Mod(c.phase, 2*math.Pi)
}

func pow4(v complex128) complex128 {
	v2 := v * v
	return v2 * v2
}

// phasor returns e^{jφ}. It is what cmplx.Exp(complex(0, φ)) evaluates to
// — exp(0) = 1 times (cos φ, sin φ) — without computing the exp.
func phasor(phi float64) complex128 {
	s, c := math.Sincos(phi)
	return complex(c, s)
}

// rotate multiplies x[k] by phasor(args[k]) for len(x) ≤ 64 samples. The
// phasor sites write the arguments of 64 samples at a time into a stack
// array, so one phasors call evaluates them all.
func rotate(x []complex128, args []float64) {
	var ph [64]complex128
	phasors(ph[:len(x)], args)
	for k := range x {
		x[k] *= ph[k]
	}
}

// rotateRamp multiplies frame[i] by e^{−j2πf·i}.
func rotateRamp(frame []complex128, f float64) {
	var args [64]float64
	for base := 0; base < len(frame); base += len(args) {
		blk := frame[base:min(base+len(args), len(frame))]
		for k := range blk {
			args[k] = -2 * math.Pi * f * float64(base+k)
		}
		rotate(blk, args[:len(blk)])
	}
}

// GardnerSync performs symbol-timing recovery on a 2-samples-per-symbol
// stream: a Gardner timing-error detector drives a proportional-integral
// loop that adjusts the fractional interpolation point of a cubic
// Lagrange interpolator. Each Process call consumes one frame's worth of
// samples and produces exactly one symbol per two input samples, carrying
// the residual stream across calls.
type GardnerSync struct {
	sps        int
	kp, ki     float64
	mu         float64 // fractional interpolation offset in samples
	intg       float64 // loop integrator
	buf        []complex128
	base       int // integer read position in buf
	prevSym    complex128
	havePrev   bool
	lastMid    complex128
	initalized bool
}

// NewGardnerSync creates a timing synchronizer for sps samples/symbol
// (only sps = 2 is supported, as in the paper's receiver).
func NewGardnerSync(sps int) *GardnerSync {
	return &GardnerSync{sps: sps, kp: 0.05, ki: 2e-5}
}

// Mu returns the current fractional timing offset (diagnostics).
func (g *GardnerSync) Mu() float64 { return g.mu }

// interp evaluates a 4-tap cubic Lagrange interpolator at buf[i+mu].
func interp(buf []complex128, i int, mu float64) complex128 {
	// Taps at i-1, i, i+1, i+2.
	xm1, x0, x1, x2 := buf[i-1], buf[i], buf[i+1], buf[i+2]
	m := complex(mu, 0)
	// Farrow form of cubic Lagrange. Dividing a complex number by a real
	// constant is dividing each component by it; spelled out, it does not
	// go through the general complex division.
	c0 := x0
	c1 := x1 - div(xm1, 3) - div(x0, 2) - div(x2, 6)
	c2 := div(xm1+x1, 2) - x0
	c3 := div(x2-xm1, 6) + div(x0-x1, 2)
	return ((c3*m+c2)*m+c1)*m + c0
}

// div divides v by the real constant k, component by component.
func div(v complex128, k float64) complex128 {
	return complex(real(v)/k, imag(v)/k)
}

// Process consumes samples (2 sps) and appends recovered symbols to dst,
// returning dst. In steady state it emits len(samples)/2 symbols.
func (g *GardnerSync) Process(samples []complex128, dst []complex128) []complex128 {
	g.buf = append(g.buf, samples...)
	// Need taps from base-1 to base+sps+2 for a full symbol step.
	for g.base+g.sps+2 < len(g.buf) && g.base >= 1 {
		sym := interp(g.buf, g.base, g.mu)
		mid := interp(g.buf, g.base+g.sps/2, g.mu)
		if g.havePrev {
			// Gardner TED: e = Re{ mid* · (sym − prev) } using the
			// midpoint between the previous and current strobes.
			e := real(cmplx.Conj(g.lastMid) * (sym - g.prevSym))
			g.intg += g.ki * e
			adj := g.kp*e + g.intg
			if adj > 0.45 {
				adj = 0.45
			} else if adj < -0.45 {
				adj = -0.45
			}
			g.mu -= adj
			// Normalize mu with hysteresis: wrapping exactly at [0,1)
			// limit-cycles when the equilibrium sits on the boundary
			// (integer channel delay), slipping samples mid-frame. The
			// cubic interpolator stays accurate on [-0.5, 1.5), so wrap
			// only beyond that.
			for g.mu < -0.5 {
				g.mu++
				g.base--
			}
			for g.mu >= 1.5 {
				g.mu--
				g.base++
			}
		}
		g.prevSym = sym
		g.lastMid = mid
		g.havePrev = true
		dst = append(dst, sym)
		g.base += g.sps
	}
	if !g.initalized {
		// Ensure base ≥ 1 for the interpolator's left tap.
		if g.base == 0 {
			g.base = 1
		}
		g.initalized = true
	}
	// Compact the buffer, keeping one tap of left context.
	if g.base > 8*g.sps {
		drop := g.base - 1
		g.buf = append(g.buf[:0], g.buf[drop:]...)
		g.base = 1
	}
	return dst
}

// Frame synchronization locates PLFRAME boundaries in the recovered
// symbol stream by differential correlation against the known SOF
// sequence (robust to residual carrier offset and phase). It is split in
// two pipeline-safe halves matching Table III: FrameSearcher (part 1)
// estimates and tracks the frame offset, FrameExtractor (part 2)
// re-aligns the stream using the offset the searcher put on the frame.
// The halves hold independent copies of the stream so they can live in
// different pipeline stages without sharing state.

// FrameSearcher estimates the PLFRAME offset: a full search until the
// detection metric crosses the lock threshold, then a ±2-symbol tracking
// window.
type FrameSearcher struct {
	frameLen  int
	sofDiff   []complex128
	buf       []complex128
	startMod  int // absolute stream position of buf[0], modulo frameLen
	locked    bool
	offset    int // SOF position relative to buf
	threshold float64
}

// NewFrameSearcher creates the offset estimator for the given SOF symbol
// sequence and total frame length in symbols.
func NewFrameSearcher(sof []complex128, frameLen int) *FrameSearcher {
	fs := &FrameSearcher{frameLen: frameLen}
	fs.sofDiff = make([]complex128, len(sof)-1)
	for i := range fs.sofDiff {
		fs.sofDiff[i] = sof[i+1] * cmplx.Conj(sof[i])
	}
	// With unit-power symbols the aligned metric approaches len(sofDiff);
	// require a comfortable fraction of it before declaring lock so the
	// zero-padded startup chunks cannot produce a false lock.
	fs.threshold = 0.4 * float64(len(fs.sofDiff))
	return fs
}

// Locked reports whether frame alignment has been acquired.
func (fs *FrameSearcher) Locked() bool { return fs.locked }

// Offset returns the current frame offset estimate as an absolute stream
// position modulo the frame length (the representation the extractor
// needs, independent of the searcher's internal buffer trimming).
func (fs *FrameSearcher) Offset() int {
	return (fs.startMod + fs.offset) % fs.frameLen
}

// correlate computes the differential correlation magnitude at offset o.
func (fs *FrameSearcher) correlate(o int) float64 {
	var acc complex128
	for i, d := range fs.sofDiff {
		acc += fs.buf[o+i+1] * cmplx.Conj(fs.buf[o+i]) * cmplx.Conj(d)
	}
	return cmplx.Abs(acc)
}

// Search ingests one frame's worth of symbols and updates the offset
// estimate, returning the detection metric of the chosen offset.
func (fs *FrameSearcher) Search(syms []complex128) float64 {
	fs.buf = append(fs.buf, syms...)
	need := fs.frameLen + len(fs.sofDiff) + 3
	if len(fs.buf) < need {
		return 0
	}
	best, bestOff := -1.0, fs.offset
	if !fs.locked {
		for o := 0; o+len(fs.sofDiff)+1 < len(fs.buf) && o < fs.frameLen; o++ {
			if m := fs.correlate(o); m > best {
				best, bestOff = m, o
			}
		}
		if best >= fs.threshold {
			fs.offset = bestOff
			fs.locked = true
		}
	} else {
		for d := -2; d <= 2; d++ {
			o := fs.offset + d
			if o < 0 || o+len(fs.sofDiff)+1 >= len(fs.buf) {
				continue
			}
			if m := fs.correlate(o); m > best {
				best, bestOff = m, o
			}
		}
		fs.offset = bestOff
	}
	// Keep only the most recent window needed for the next search. The
	// stream is frame-periodic, so reducing the offset modulo the frame
	// length keeps it pointing at an SOF.
	if len(fs.buf) > 2*need {
		drop := len(fs.buf) - need
		fs.buf = append(fs.buf[:0], fs.buf[drop:]...)
		fs.startMod = (fs.startMod + drop) % fs.frameLen
		fs.offset = ((fs.offset-drop)%fs.frameLen + fs.frameLen) % fs.frameLen
	}
	return best
}

// FrameExtractor realigns the symbol stream to the offset estimated by a
// FrameSearcher and pops whole PLFRAMEs.
type FrameExtractor struct {
	frameLen int
	buf      []complex128
	applied  bool
}

// NewFrameExtractor creates an extractor for frameLen-symbol frames.
func NewFrameExtractor(frameLen int) *FrameExtractor {
	return &FrameExtractor{frameLen: frameLen}
}

// ExtractInto appends the chunk, applies the searcher's offset on first
// lock, and copies one aligned frame of frameLen symbols to dst. It
// reports whether it wrote a frame, and leaves dst alone when it did not:
// while the stream is not yet locked or not enough symbols are buffered.
func (fe *FrameExtractor) ExtractInto(dst, syms []complex128, offset int, locked bool) bool {
	fe.buf = append(fe.buf, syms...)
	if !locked {
		// Bound the pre-lock buffer: only the most recent frame of
		// symbols can matter once lock is declared.
		if keep := 2 * fe.frameLen; len(fe.buf) > keep {
			fe.buf = append(fe.buf[:0], fe.buf[len(fe.buf)-keep:]...)
		}
		return false
	}
	if !fe.applied {
		// Align once: the searcher's offset is relative to its (bounded)
		// buffer, which tails ours; drop modulo a frame.
		drop := offset % fe.frameLen
		if len(fe.buf) < drop {
			return false
		}
		fe.buf = append(fe.buf[:0], fe.buf[drop:]...)
		fe.applied = true
	}
	if len(fe.buf) < fe.frameLen {
		return false
	}
	copy(dst, fe.buf[:fe.frameLen])
	fe.buf = append(fe.buf[:0], fe.buf[fe.frameLen:]...)
	return true
}

// FineFreqSync is a Luise&Reggiannini-style fine carrier-frequency
// estimator over the known header symbols, smoothing its estimate across
// frames and derotating each frame with a per-frame phase ramp.
type FineFreqSync struct {
	header []complex128
	Alpha  float64
	fHat   float64      // cycles per symbol
	z      []complex128 // header with the known data removed, per-frame scratch
}

// NewFineFreqSync creates the estimator for the known header sequence.
// The estimate is smoothed across frames (the true residual — the
// uncompensated part of the CFO — drifts only as fast as the coarse loop
// converges, while the per-frame header measurement carries ISI-induced
// self-noise of ~1e-4 cycles/symbol that averaging suppresses); the
// remaining per-frame error is trimmed by the blind estimator in the
// P/F task (Pow4FreqEstimate).
func NewFineFreqSync(header []complex128) *FineFreqSync {
	return &FineFreqSync{header: append([]complex128(nil), header...), Alpha: 0.25,
		z: make([]complex128, len(header))}
}

// Estimate returns the smoothed residual CFO estimate (cycles/symbol).
func (f *FineFreqSync) Estimate() float64 { return f.fHat }

// Process estimates the residual CFO from the frame's known header
// symbols with the Luise & Reggiannini estimator — the data-aided
// multi-lag autocorrelation average
//
//	f̂ = arg( Σ_{m=1..L} R(m) ) / (π (L+1)),  L = N/2,
//
// whose variance shrinks cubically with the header length (a lag-1
// differential estimate over the same symbols is orders of magnitude
// noisier and would smear the 1000-symbol payload) — and derotates the
// whole frame in place.
func (f *FineFreqSync) Process(frame []complex128) {
	h := len(f.header)
	if len(frame) < h || h < 4 {
		return
	}
	// Remove the known data: z_i = r_i · conj(h_i).
	z := f.z
	for i := 0; i < h; i++ {
		z[i] = frame[i] * cmplx.Conj(f.header[i])
	}
	L := h / 2
	var sum complex128
	for m := 1; m <= L; m++ {
		var r complex128
		for i := 0; i+m < h; i++ {
			r += z[i+m] * cmplx.Conj(z[i])
		}
		sum += r * complex(1/float64(h-m), 0)
	}
	if cmplx.Abs(sum) > 1e-12 {
		est := cmplx.Phase(sum) / (math.Pi * float64(L+1))
		f.fHat = (1-f.Alpha)*f.fHat + f.Alpha*est
	}
	rotateRamp(frame, f.fHat)
}

// Pow4FreqEstimate blindly estimates a small residual carrier frequency
// (cycles/symbol) over a QPSK frame from the phase slope of its 4th
// power, aggregated over windows wins windows with adjacent-difference
// unwrapping. The unambiguous range is ±1/(8·len/wins) cycles/symbol.
// It is a pure function of the frame, so tasks using it stay replicable.
func Pow4FreqEstimate(frame []complex128, wins int) float64 {
	if wins < 2 || len(frame) < 4*wins {
		return 0
	}
	w := len(frame) / wins
	var sum, prev complex128
	for k := 0; k < wins; k++ {
		var acc complex128
		for _, v := range frame[k*w : (k+1)*w] {
			acc += pow4(v)
		}
		if k > 0 {
			sum += acc * cmplx.Conj(prev)
		}
		prev = acc
	}
	if cmplx.Abs(sum) < 1e-12 {
		return 0
	}
	return cmplx.Phase(sum) / (4 * 2 * math.Pi * float64(w))
}

// DerotateRamp removes a frequency ramp e^{-j2πf·i} from the frame in
// place.
func DerotateRamp(frame []complex128, f float64) {
	if f == 0 {
		return
	}
	rotateRamp(frame, f)
}

// PhaseEstimate returns the constant phase offset of a frame estimated
// from its known header symbols (the per-frame P/F fine phase task). It
// is a pure function of the frame, so the task using it is replicable.
func PhaseEstimate(frame, header []complex128) float64 {
	n := len(header)
	if len(frame) < n {
		n = len(frame)
	}
	var acc complex128
	for i := 0; i < n; i++ {
		acc += frame[i] * cmplx.Conj(header[i])
	}
	return cmplx.Phase(acc)
}

// Derotate multiplies the frame by e^{−jφ} in place.
func Derotate(frame []complex128, phi float64) {
	r := phasor(-phi)
	for i := range frame {
		frame[i] *= r
	}
}
