package dvbs2

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ampsched/internal/streampu"
)

// BenchmarkLDPCDecode measures the layered NMS decoder at the receiver's
// size (Test(), N=1620) and the paper's full short-FECFRAME size
// (N=16200). Each op decodes the next of 64 distinct mildly noisy frames,
// so the branch predictor cannot learn one frame's signs.
func BenchmarkLDPCDecode(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Params
	}{{"test", Test()}, {"default", Default()}} {
		b.Run(c.name, func(b *testing.B) {
			l, err := NewLDPC(c.p)
			if err != nil {
				b.Fatal(err)
			}
			d := l.NewDecoder()
			rng := rand.New(rand.NewSource(1))
			frames := make([][]float64, 64)
			for f := range frames {
				frames[f] = bpskLLR(rng, l.encode(randomBits(rng, l.K())), 0.3)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, res := d.Decode(frames[i%len(frames)]); !res.Converged {
					b.Fatal("decode diverged")
				}
			}
		})
	}
}

// BenchmarkLDPCEncode measures the linear-time IRA encoder.
func BenchmarkLDPCEncode(b *testing.B) {
	l, err := NewLDPC(Default())
	if err != nil {
		b.Fatal(err)
	}
	info := make([]byte, l.K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.encode(info)
	}
}

// BenchmarkBCHDecode measures the HIHO pipeline (syndromes, BM, Chien) at
// the paper's GF(2^14), t=12 configuration, on a clean codeword — the
// receiver's common path — and with t errors injected.
func BenchmarkBCHDecode(b *testing.B) {
	p := Default()
	codec, err := NewBCH(p.BCHM, p.BCHT, p.KBch())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	clean := codec.encode(randomBits(rng, codec.k))
	for _, nerr := range []int{0, codec.t} {
		b.Run(fmt.Sprintf("errors=%d", nerr), func(b *testing.B) {
			cw := make([]byte, len(clean))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(cw, clean)
				for e := 0; e < nerr; e++ {
					cw[(i*7919+e*131)%len(cw)] ^= 1
				}
				if _, n, ok := codec.Decode(cw); !ok || n != nerr {
					b.Fatalf("decode: ok=%v corrected=%d, want %d", ok, n, nerr)
				}
			}
		})
	}
}

// BenchmarkBCHEncode measures the LFSR-division encoder.
func BenchmarkBCHEncode(b *testing.B) {
	p := Default()
	codec, err := NewBCH(p.BCHM, p.BCHT, p.KBch())
	if err != nil {
		b.Fatal(err)
	}
	info := make([]byte, codec.k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.encode(info)
	}
}

// BenchmarkReceiverFrame measures one full receiver pass (all 23 tasks,
// sequentially) over one frame at the reduced test numerology.
func BenchmarkReceiverFrame(b *testing.B) {
	tx, err := NewTransmitter(Test())
	if err != nil {
		b.Fatal(err)
	}
	rx := NewReceiver(tx, NewTxStream(tx, DefaultChannel()))
	tasks := rx.Tasks()
	// Warm up past frame lock.
	if _, err := streampu.RunChain(tasks, 6, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := streampu.RunChain(tasks, b.N, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTransmitterFrame measures one full transmit pass.
func BenchmarkTransmitterFrame(b *testing.B) {
	tx, err := NewTransmitter(Test())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.EncodeFrame()
	}
}

// BenchmarkFIR runs each filter the transceiver runs over one 1 800-sample
// chunk (the Test() frame): the two matched-filter halves (20 and 21 taps),
// the channel's 8-tap fractional delay and the transmitter's interpolator
// (its two phases at step 2). kernel=asm is filter, which is the assembly
// on amd64 and filterGo elsewhere; kernel=go is filterGo.
func BenchmarkFIR(b *testing.B) {
	const n = 1800
	rrc := RRCTaps(0.2, 10, 2)
	half := make([]float64, len(rrc))
	copy(half[20:], rrc[20:])
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, n+len(rrc))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 2*n)
	for _, c := range []struct {
		name string
		firs []*FIR // one per phase; phase p writes dst[p], dst[p+step], …
	}{
		{"taps=20", []*FIR{NewFIR(rrc[:20])}},
		{"taps=21", []*FIR{NewFIR(half)}},
		{"taps=8", []*FIR{NewFIR(fracDelayTaps(0.35))}},
		{"interpolator", NewInterpolator(rrc, 2).phases},
	} {
		for _, k := range []string{"asm", "go"} {
			b.Run(c.name+"/kernel="+k, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for p, f := range c.firs {
						kernel := f.filter
						if k == "go" {
							kernel = f.filterGo
						}
						kernel(x, f.d, f.d+n, dst, p, len(c.firs))
					}
				}
			})
		}
	}
}

// BenchmarkPhasors evaluates the phasors of one 1 800-sample ramp, the
// arguments FineFreqSync and DerotateRamp pass. kernel=asm is phasors,
// kernel=go is phasor (math.Sincos) per argument.
func BenchmarkPhasors(b *testing.B) {
	args := make([]float64, 1800)
	for i := range args {
		args[i] = -2 * math.Pi * 1e-4 * float64(i)
	}
	dst := make([]complex128, len(args))
	b.Run("kernel=asm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			phasors(dst, args)
		}
	})
	b.Run("kernel=go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, a := range args {
				dst[j] = phasor(a)
			}
		}
	})
}
