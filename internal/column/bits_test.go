package column

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestBitsLayout: codes are packed LSB-first, a Rice code's unary run
// (zeros, then a one) before its remainder, the last byte padded with
// zero bits; and they read back.
func TestBitsLayout(t *testing.T) {
	var a Appender
	w := BitWriter{A: &a}
	w.Bits(0b101, 3)           // bits 0-2
	w.Rice(0b1110, 2)          // a run of 3: bits 3-5 zero, bit 6 one; the remainder 0b10 in bits 7-8
	w.Bits(math.MaxUint64, 64) // bits 9-72
	w.Flush()
	want := append(append([]byte{0b0100_0101}, bytes.Repeat([]byte{0xff}, 8)...), 0b0000_0001)
	if !bytes.Equal(a, want) {
		t.Fatalf("packed %08b, want %08b", []byte(a), want)
	}
	var d BitDecoder
	d.Reset(a)
	if v := d.Bits(3); v != 0b101 {
		t.Fatalf("Bits(3) = %b", v)
	}
	if v := d.Rice(2); v != 0b1110 {
		t.Fatalf("Rice(2) = %b", v)
	}
	if v := d.Bits(64); v != math.MaxUint64 {
		t.Fatalf("Bits(64) = %x", v)
	}
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
}

// TestBitsRoundTrip: random runs of fixed-width and Rice codes, of
// every width and parameter, read back as written and end clean.
func TestBitsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := range 200 {
		type code struct {
			v    uint64
			k    int
			rice bool
		}
		var codes []code
		for range r.Intn(50) {
			c := code{k: r.Intn(65), rice: r.Intn(2) == 0}
			if c.rice {
				c.k = r.Intn(64)
				c.v = r.Uint64() >> r.Intn(64) // long runs under small k stay short enough
				if c.v>>c.k > 1<<12 {
					c.v &= 1<<(c.k+12) - 1
				}
			} else {
				c.v = r.Uint64() & (1<<c.k - 1)
			}
			codes = append(codes, c)
		}
		var a Appender
		w := BitWriter{A: &a}
		for _, c := range codes {
			if c.rice {
				w.Rice(c.v, c.k)
			} else {
				w.Bits(c.v, c.k)
			}
		}
		w.Flush()
		var d BitDecoder
		d.Reset(a)
		for i, c := range codes {
			var v uint64
			if c.rice {
				v = d.Rice(c.k)
			} else {
				v = d.Bits(c.k)
			}
			if v != c.v {
				t.Fatalf("trial %d code %d: read %d, wrote %d (k %d, rice %v)", trial, i, v, c.v, c.k, c.rice)
			}
		}
		if err := d.End(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestRiceParam: K minimizes T>>k + n(k+1) over k below 64, the
// smallest on a tie — checked against that sum taken in big integers
// over skewed runs (small gaps, a few huge values, IDs near 2^64) and
// 0 for no value — and its codes never take n bits more than the best
// parameter's, where those fit in a uint64.
func TestRiceParam(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	runs := [][]uint64{nil, {0}, {1}, {math.MaxUint64}, {math.MaxUint64, math.MaxUint64 - 1, 0}}
	for range 300 {
		vs := make([]uint64, 1+r.Intn(300))
		scale := r.Intn(64)
		for i := range vs {
			vs[i] = r.Uint64() >> scale
			if r.Intn(40) == 0 {
				vs[i] = r.Uint64() // an outlier
			}
		}
		runs = append(runs, vs)
	}
	for _, vs := range runs {
		var p RiceParam
		sum := new(big.Int)
		for _, v := range vs {
			p.Add(v)
			sum.Add(sum, new(big.Int).SetUint64(v))
		}
		n := big.NewInt(int64(len(vs)))
		want, fewest := 0, (*big.Int)(nil)
		for k := range 64 {
			b := new(big.Int).Rsh(sum, uint(k))
			b.Add(b, new(big.Int).Mul(n, big.NewInt(int64(k+1))))
			if fewest == nil || b.Cmp(fewest) < 0 {
				want, fewest = k, b
			}
		}
		got := p.K()
		if got != want {
			t.Fatalf("K over %d values = %d, want %d", len(vs), got, want)
		}
		codes := func(k int) (total uint64, ok bool) {
			for _, v := range vs {
				if total += v>>k + 1 + uint64(k); total >= 1<<62 || v>>k >= 1<<62 {
					return 0, false
				}
			}
			return total, true
		}
		if bits, ok := codes(got); ok {
			for k := range 64 {
				if best, ok := codes(k); ok && bits >= best+uint64(len(vs)) && len(vs) > 0 {
					t.Fatalf("%d values: %d bits under K = %d, %d under %d", len(vs), bits, got, best, k)
				}
			}
		}
	}
}

// FuzzBitDecoder: a run of codes read from arbitrary bytes — widths and
// parameters drawn from the input's first bytes — never panics, and
// bytes the decoder reads to a clean End are exactly what a BitWriter
// writes for the codes read: packed codes have one encoding.
func FuzzBitDecoder(f *testing.F) {
	f.Add([]byte{3, 0x82}, []byte{0b0100_0101, 0x01})
	f.Add([]byte{0x40}, bytes.Repeat([]byte{0xff}, 8))
	f.Add([]byte{0x80 | 63}, []byte{0b100})
	f.Add([]byte{0x80}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1}, []byte{0b11})
	f.Fuzz(func(t *testing.T, ops, packed []byte) {
		if len(ops) > 64 {
			return
		}
		// An op byte's top bit picks a Rice code, the rest its parameter
		// (mod 64) or its width (mod 65).
		vals := make([]uint64, len(ops))
		var d BitDecoder
		d.Reset(packed)
		for i, op := range ops {
			if op&0x80 != 0 {
				vals[i] = d.Rice(int(op&0x7f) % 64)
			} else {
				vals[i] = d.Bits(int(op) % 65)
			}
		}
		if d.End() != nil {
			return
		}
		var a Appender
		w := BitWriter{A: &a}
		for i, op := range ops {
			if op&0x80 != 0 {
				w.Rice(vals[i], int(op&0x7f)%64)
			} else {
				w.Bits(vals[i], int(op)%65)
			}
		}
		w.Flush()
		if !bytes.Equal(a, packed) {
			t.Fatalf("read %v from %x, which write back as %x", vals, packed, []byte(a))
		}
	})
}
