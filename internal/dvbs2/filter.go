package dvbs2

import (
	"fmt"
	"math"
)

// Root-raised-cosine pulse shaping and matched filtering at SPS samples
// per symbol. The receiver splits its matched filter into two pipeline
// tasks (Table III's "Filter Matched – filter (part 1/2)"), each
// convolving half of the frame while carrying the FIR tail across calls.

// RRCTaps returns root-raised-cosine taps with the given roll-off, span
// (half-length in symbols) and samples per symbol, normalized to unit
// energy. The filter has 2·span·sps + 1 taps.
func RRCTaps(rolloff float64, span, sps int) []float64 {
	if rolloff <= 0 || rolloff >= 1 || span < 1 || sps < 1 {
		panic(fmt.Sprintf("dvbs2: invalid RRC parameters β=%v span=%d sps=%d", rolloff, span, sps))
	}
	n := 2*span*sps + 1
	taps := make([]float64, n)
	b := rolloff
	for i := 0; i < n; i++ {
		t := float64(i-span*sps) / float64(sps) // in symbol periods
		var h float64
		switch {
		case t == 0:
			h = 1 - b + 4*b/math.Pi
		case math.Abs(math.Abs(t)-1/(4*b)) < 1e-9:
			h = b / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(math.Pi/(4*b)) +
				(1-2/math.Pi)*math.Cos(math.Pi/(4*b)))
		default:
			num := math.Sin(math.Pi*t*(1-b)) + 4*b*t*math.Cos(math.Pi*t*(1+b))
			den := math.Pi * t * (1 - 16*b*b*t*t)
			h = num / den
		}
		taps[i] = h
	}
	// Unit energy normalization.
	e := 0.0
	for _, h := range taps {
		e += h * h
	}
	e = math.Sqrt(e)
	for i := range taps {
		taps[i] /= e
	}
	return taps
}

// FIR is a streaming complex FIR filter with real taps that preserves its
// delay-line state across calls, so a frame-partitioned pipeline can
// filter a continuous sample stream.
//
// Zero taps at either end of the tap set are trimmed at construction:
// trailing ones contribute nothing, leading ones are a pure delay that
// only shifts the window the remaining taps read. Output i is
//
//	y[i] = Σ_j taps[j]·x[i−j],  summed in ascending j,
//
// exactly as if every tap, zeros included, had been multiplied out: the
// accumulator starts at +0, can never become −0, and so adding a ±0
// product never changes it (finite inputs).
type FIR struct {
	// rtaps holds the taps from the first to the last non-zero one in
	// reverse order: rtaps[k] meets the k-th oldest sample of a window, so
	// tap and sample share one index and the inner loop needs no bounds
	// check (worth 15 % of it).
	rtaps []float64
	// d is the delay-line length: the trimmed leading zeros plus
	// len(rtaps)−1. The window of output i is x[i−d : i−d+len(rtaps)].
	d int
	// line[:d] is the delay line, oldest sample first; line[d:] is room
	// for the first d samples of a chunk, so the outputs whose window
	// reaches behind the chunk read one contiguous span too.
	line []complex128
}

// NewFIR creates a streaming filter with the given taps.
func NewFIR(taps []float64) *FIR {
	lo, hi := 0, len(taps)
	for hi > 0 && taps[hi-1] == 0 {
		hi--
	}
	for lo < hi && taps[lo] == 0 {
		lo++
	}
	f := &FIR{rtaps: make([]float64, hi-lo), d: max(hi-1, 0)}
	for k := range f.rtaps {
		f.rtaps[k] = taps[hi-1-k]
	}
	f.line = make([]complex128, 2*f.d)
	return f
}

// Process filters in into dst (allocated if nil) and returns dst. Output
// sample i corresponds to input sample i (the filter's group delay is
// not compensated here; the caller accounts for it). dst must not
// overlap in.
func (f *FIR) Process(in []complex128, dst []complex128) []complex128 {
	if dst == nil {
		dst = make([]complex128, len(in))
	}
	f.process(in, dst, 0, 1)
	return dst
}

// Interpolator is the polyphase form of "zero-stuff by sps, then filter":
// phase p keeps taps p, p+sps, p+2·sps, … and produces output samples p,
// p+sps, … straight from the symbol stream. What it leaves out are the
// products with the stuffed zeros, which add ±0 and change nothing, so
// its output equals the zero-stuffed filter's bit for bit.
type Interpolator struct {
	phases []*FIR
}

// NewInterpolator creates the sps-phase interpolating filter for taps.
func NewInterpolator(taps []float64, sps int) *Interpolator {
	ip := &Interpolator{phases: make([]*FIR, sps)}
	for p := range ip.phases {
		var sub []float64
		for j := p; j < len(taps); j += sps {
			sub = append(sub, taps[j])
		}
		ip.phases[p] = NewFIR(sub)
	}
	return ip
}

// Process shapes one chunk of symbols into dst (allocated if nil), which
// receives sps samples per symbol, and returns dst.
func (ip *Interpolator) Process(syms []complex128, dst []complex128) []complex128 {
	sps := len(ip.phases)
	if dst == nil {
		dst = make([]complex128, len(syms)*sps)
	}
	for p, f := range ip.phases {
		f.process(syms, dst, p, sps)
	}
	return dst
}

// process writes the output for in[i] to dst[at+i·step] and advances the
// delay line by the chunk.
func (f *FIR) process(in, dst []complex128, at, step int) {
	n, d := len(in), f.d
	// Head: the first d outputs reach behind the chunk; lay its first
	// samples behind the delay line and filter from there.
	head := min(n, d)
	copy(f.line[d:], in[:head])
	f.filter(f.line, d, d+head, dst, at, step)
	// Body: every later window lies inside the chunk.
	if n > d {
		f.filter(in, d, n, dst, at+d*step, step)
		copy(f.line, in[n-d:])
	} else {
		copy(f.line[:d], f.line[n:n+d])
	}
}

// filterGo computes outputs lo..hi−1 of the stream x (x[lo−d:] must
// exist) into dst[at], dst[at+step], …. The products are rounded before
// they are added — float64(…) forbids a fused multiply-add — so the
// result is the same on every platform.
//
// Four outputs share a pass over the taps: eight independent add chains
// instead of two, each output still summed in ascending j, so no value
// changes. The one-output loop finishes the last hi−lo mod 4.
//
// It is filter on every GOARCH but amd64, and the reference the amd64
// kernel (filter_amd64.s) is held to.
func (f *FIR) filterGo(x []complex128, lo, hi int, dst []complex128, at, step int) {
	rt, d := f.rtaps, f.d
	i := lo
	for ; i+4 <= hi; i += 4 {
		w0 := x[i-d:][:len(rt)]
		w1 := x[i+1-d:][:len(rt)]
		w2 := x[i+2-d:][:len(rt)]
		w3 := x[i+3-d:][:len(rt)]
		var re0, im0, re1, im1, re2, im2, re3, im3 float64
		for k := len(rt) - 1; k >= 0; k-- { // newest sample first: ascending j
			t := rt[k]
			re0 += float64(t * real(w0[k]))
			im0 += float64(t * imag(w0[k]))
			re1 += float64(t * real(w1[k]))
			im1 += float64(t * imag(w1[k]))
			re2 += float64(t * real(w2[k]))
			im2 += float64(t * imag(w2[k]))
			re3 += float64(t * real(w3[k]))
			im3 += float64(t * imag(w3[k]))
		}
		dst[at] = complex(re0, im0)
		dst[at+step] = complex(re1, im1)
		dst[at+2*step] = complex(re2, im2)
		dst[at+3*step] = complex(re3, im3)
		at += 4 * step
	}
	for ; i < hi; i++ {
		w := x[i-d:][:len(rt)]
		var re, im float64
		for k := len(rt) - 1; k >= 0; k-- {
			re += float64(rt[k] * real(w[k]))
			im += float64(rt[k] * imag(w[k]))
		}
		dst[at] = complex(re, im)
		at += step
	}
}
