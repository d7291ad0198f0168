package dvbs2

import (
	"testing"
)

// Fuzz targets double as robustness regression tests: `go test` runs the
// seed corpus, and `go test -fuzz=FuzzX` explores further. Decoders and
// synchronizers must never panic on adversarial inputs — they sit behind
// a radio.

func FuzzBCHDecode(f *testing.F) {
	codec, err := NewBCH(8, 2, 100)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0x00, 0xFF, 0xAA})
	f.Add([]byte{0x13, 0x37})
	f.Fuzz(func(t *testing.T, data []byte) {
		cw := make([]byte, codec.N())
		for i := range cw {
			if len(data) > 0 {
				cw[i] = (data[i%len(data)] >> (i % 8)) & 1
			}
		}
		in := append([]byte(nil), cw...)
		info, corrected, ok := codec.Decode(cw)
		if len(info) != codec.K() {
			t.Fatalf("info length %d", len(info))
		}
		if corrected < 0 || corrected > codec.t {
			t.Fatalf("corrected %d outside [0,t]", corrected)
		}
		if !ok && (corrected != 0 || string(cw) != string(in)) {
			t.Fatalf("failed decode reports %d corrections or changed its input", corrected)
		}
	})
}

// FuzzBCHMatchesReference holds the remainder-first Decode to
// referenceBCHDecode: same information bits, count, verdict and word after
// the call. The input picks a codec — one, two or three register words —
// the information bits and the error positions.
func FuzzBCHMatchesReference(f *testing.F) {
	var codecs []*BCH
	for _, c := range [][3]int{{8, 2, 100}, {11, 4, 500}, {14, 12, 300}} {
		codec, err := NewBCH(c[0], c[1], c[2])
		if err != nil {
			f.Fatal(err)
		}
		codecs = append(codecs, codec)
	}
	for c := range codecs {
		for _, nerr := range []byte{0, 1, 2, 4, 12, 13, 20} {
			errs := make([]byte, 2*int(nerr))
			for i := range errs {
				errs[i] = byte(37*i + int(nerr))
			}
			f.Add(uint8(c), []byte{0x5A, byte(c), nerr}, errs)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data, errs []byte) {
		codec := codecs[int(which)%len(codecs)]
		info := make([]byte, codec.K())
		for i := range info {
			if len(data) > 0 {
				info[i] = data[i%len(data)] >> (i % 8) & 1
			}
		}
		cw := codec.Encode(info)
		for i := 0; i+1 < len(errs); i += 2 {
			cw[(int(errs[i])<<8|int(errs[i+1]))%len(cw)] ^= 1
		}
		ref := append([]byte(nil), cw...)
		gotInfo, gotN, gotOK := codec.Decode(cw)
		wantInfo, wantN, wantOK := referenceBCHDecode(codec, ref)
		if string(gotInfo) != string(wantInfo) || gotN != wantN || gotOK != wantOK {
			t.Fatalf("Decode gives (%d, %v), reference (%d, %v), info equal %v",
				gotN, gotOK, wantN, wantOK, string(gotInfo) == string(wantInfo))
		}
		if string(cw) != string(ref) {
			t.Fatal("the word after Decode differs from the reference's")
		}
	})
}

func FuzzLDPCDecode(f *testing.F) {
	p := Test()
	p.NLdpc, p.KLdpc, p.Q = 180, 144, 36
	l, err := NewLDPC(p)
	if err != nil {
		f.Fatal(err)
	}
	d := l.NewDecoder()
	f.Add([]byte{0x55, 0x01, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		llr := make([]float64, l.N())
		for i := range llr {
			b := byte(0x5A)
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			llr[i] = (float64(b) - 127.5) / 16
		}
		hard, res := d.Decode(llr)
		if len(hard) != l.N() {
			t.Fatalf("hard length %d", len(hard))
		}
		if res.Iterations < 1 || res.Iterations > p.LdpcIters {
			t.Fatalf("iterations %d", res.Iterations)
		}
		// Early-stop contract: converged ⟺ syndrome satisfied.
		if res.Converged != l.CheckSyndrome(hard) {
			t.Fatal("convergence flag disagrees with the syndrome")
		}
	})
}

// FuzzLDPCMatchesReference holds Decode to referenceLDPCDecode bit for bit
// on LLRs drawn from the bytes, one byte in sixteen a special value: ±0,
// NaN, ±Inf, a subnormal or a tied magnitude.
func FuzzLDPCMatchesReference(f *testing.F) {
	p := Test()
	p.NLdpc, p.KLdpc, p.Q = 180, 144, 36
	l, err := NewLDPC(p)
	if err != nil {
		f.Fatal(err)
	}
	d := l.NewDecoder()
	f.Add([]byte{0x55, 0x01, 0x80})
	f.Add([]byte{0x90, 0x02, 0x70, 0x6F, 0x03, 0x91, 0x04})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		llr := make([]float64, l.N())
		for i := range llr {
			b := byte(0x5A)
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			if b < 16 {
				llr[i] = specialLLRs[int(b)%len(specialLLRs)]
			} else {
				llr[i] = (float64(b) - 127.5) / 16
			}
		}
		checkLDPCMatchesReference(t, d, llr)
	})
}

func FuzzGardnerSync(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0xFF, 0x00}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunks uint8) {
		g := NewGardnerSync(2)
		if len(data) == 0 {
			return
		}
		for c := 0; c < int(chunks%8)+1; c++ {
			in := make([]complex128, len(data))
			for i, b := range data {
				in[i] = complex(float64(b)/128-1, float64(b^0x5A)/128-1)
			}
			out := g.Process(in, nil)
			if len(out) > len(in) {
				t.Fatalf("more symbols (%d) than samples (%d)", len(out), len(in))
			}
		}
		if mu := g.mu; mu < -0.5 || mu >= 1.5 {
			t.Fatalf("mu %v escaped its hysteresis band", mu)
		}
	})
}

func FuzzFrameSearcher(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, chunks uint8) {
		header := PLHeader(26, 64)
		fs := NewFrameSearcher(header[:26], 200)
		fe := NewFrameExtractor(200)
		for c := 0; c < int(chunks%6)+1; c++ {
			chunk := make([]complex128, 200)
			for i := range chunk {
				b := byte(i)
				if len(data) > 0 {
					b = data[(c*200+i)%len(data)]
				}
				chunk[i] = complex(float64(b)/64-2, float64(b>>3)/16-1)
			}
			fs.Search(chunk)
			fr := fe.Extract(chunk, fs.Offset(), fs.Locked())
			if fr != nil && len(fr) != 200 {
				t.Fatalf("frame length %d", len(fr))
			}
			if off := fs.Offset(); off < 0 || off >= 200 {
				t.Fatalf("offset %d out of range", off)
			}
		}
	})
}

func FuzzBBFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint16(100))
	f.Add(uint32(0xFFFFFFFF), uint16(40))
	f.Fuzz(func(t *testing.T, counter uint32, kRaw uint16) {
		k := int(kRaw)%1000 + CounterBits + 1
		bits := GenerateBBFrame(counter, k)
		BBScramble(bits)
		BBScramble(bits)
		if DecodeCounter(bits) != counter {
			t.Fatal("counter lost through scramble round trip")
		}
	})
}
