package column

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestRoundTrip: every value kind reads back as written, column by
// column, and each column is read to its end.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header(7, 12)
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Varint(-1)
	w.Byte(0xfe)
	w.End()
	w.End() // an empty column
	w.Float(math.Copysign(0, -1))
	w.Float(math.Inf(1))
	w.Float(math.NaN())
	w.Text("")
	w.Text("semtree")
	w.Uvarint(math.MaxUint32)
	w.End()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if v, d, err := r.Header(); err != nil || v != 7 || d != 12 {
		t.Fatalf("header (%d, %d, %v)", v, d, err)
	}
	if err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.Uvarint() != 0 || r.Uvarint() != math.MaxUint64 || r.Varint() != math.MinInt64 || r.Varint() != -1 || r.Byte() != 0xfe {
		t.Fatal("integers differ")
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(); err != nil || r.Len() != 0 || r.End() != nil {
		t.Fatalf("empty column: %v", err)
	}
	if err := r.Next(); err != nil {
		t.Fatal(err)
	}
	fs := make([]float64, 3)
	r.Floats(fs)
	if math.Float64bits(fs[0]) != math.Float64bits(math.Copysign(0, -1)) || !math.IsInf(fs[1], 1) || !math.IsNaN(fs[2]) {
		t.Fatalf("floats %v", fs)
	}
	if r.Text() != "" || r.Text() != "semtree" || r.Uint32() != math.MaxUint32 {
		t.Fatal("strings or uint32 differ")
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("past the last column: %v", err)
	}
}

// TestAppenderDecoder: the byte-slice half reads back what it appended,
// a block framed after the fact reads back whole, Rest hands over the
// unread bytes, and readN grows its buffer only as bytes arrive.
func TestAppenderDecoder(t *testing.T) {
	var a Appender
	a.Bool(true)
	a.Bool(false)
	a.Varint(math.MinInt32)
	a.Floats([]float64{0.5, -3})
	start := len(a)
	block := bytes.Repeat([]byte{7}, 200) // a two-byte length
	a = append(a, block...)
	a.Block(start)
	a.Byte(9)
	var d Decoder
	d.Reset(a)
	fs := make([]float64, 2)
	if !d.Bool() || d.Bool() || d.Int32() != math.MinInt32 {
		t.Fatal("booleans or int32 differ")
	}
	if d.Floats(fs); fs[0] != 0.5 || fs[1] != -3 {
		t.Fatalf("floats %v", fs)
	}
	if got := d.Block(); !bytes.Equal(got, block) {
		t.Fatalf("block of %d bytes, want %d", len(got), len(block))
	}
	if rest := d.Rest(); !bytes.Equal(rest, []byte{9}) || d.End() != nil {
		t.Fatalf("rest %v, end %v", rest, d.End())
	}

	in := bytes.Repeat([]byte{1}, 200)
	got, err := readN(bytes.NewReader(in), nil, 1<<30)
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 200 || cap(got) > 1024 {
		t.Fatalf("1 GiB claimed on 200 bytes: %d read into %d (%v)", len(got), cap(got), err)
	}
	if got, err := readN(bytes.NewReader(in), got, 150); err != nil || !bytes.Equal(got, in[:150]) {
		t.Fatalf("readN(150) = %d bytes, %v", len(got), err)
	}
}

// TestAppenderFloats: Floats appends the bytes one Float call per value
// does — for runs of 0, 1 and 7 values, one past 64 KiB, and onto an
// appender that already holds bytes and has room for the run — and
// leaves the bytes before the run alone.
func TestAppenderFloats(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 64<<10/8 + 3} {
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = r.NormFloat64() * 1e6
		}
		if n > 0 {
			fs[0] = math.Copysign(0, -1)
		}
		if n > 2 {
			fs[1], fs[2] = math.NaN(), math.Inf(-1)
		}
		for _, prefix := range []Appender{nil, {0xab, 0xcd, 0xef}, append(make(Appender, 0, 3+8*n+64), 0xab, 0xcd, 0xef)} {
			want := append(Appender(nil), prefix...)
			for _, f := range fs {
				want.Float(f)
			}
			got := prefix
			spare := cap(got) - len(got)
			got.Floats(fs)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d values after %d bytes: Floats differs from one Float per value", n, len(prefix))
			}
			if spare >= 8*n && len(got) > 0 && &got[0] != &prefix[:1][0] {
				t.Fatalf("%d values after %d bytes: Floats reallocated an appender with %d spare bytes", n, len(prefix), spare)
			}
		}
	}
}

// BenchmarkAppenderFloats appends one fabric arena's worth of
// coordinates — 100 000 eight-dimensional points — to an empty
// appender, as an install's frame is written.
func BenchmarkAppenderFloats(b *testing.B) {
	fs := make([]float64, 8*100_000)
	for i := range fs {
		fs[i] = float64(i) / 7
	}
	b.SetBytes(int64(8 * len(fs)))
	b.ReportAllocs()
	for range b.N {
		var a Appender
		a.Floats(fs)
	}
}

// column frames payload the way End does.
func column(payload []byte) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Appender = append(w.Appender, payload...)
	w.End()
	_ = w.Flush()
	return buf.Bytes()
}

// TestReaderFailures: reads past a column's end, counts the column
// cannot hold, varints written longer than they need, unread bytes,
// bad checksums, bad headers and values too wide for 32 bits fail,
// stickily, without a panic.
func TestReaderFailures(t *testing.T) {
	fail := func(name string, in []byte, read func(r *Reader)) {
		t.Helper()
		r := NewReader(bytes.NewReader(in))
		if err := r.Next(); err != nil {
			t.Fatalf("%s: Next: %v", name, err)
		}
		read(r)
		if r.End() == nil {
			t.Fatalf("%s: no error", name)
		}
		if r.Uvarint() != 0 || r.Byte() != 0 || r.Text() != "" || r.Len() != 0 {
			t.Fatalf("%s: reads after a failure return values", name)
		}
	}
	fail("short float", column([]byte{1, 2, 3}), func(r *Reader) { r.Float() })
	fail("short floats", column(make([]byte, 15)), func(r *Reader) { r.Floats(make([]float64, 2)) })
	fail("short string", column([]byte{5, 'a'}), func(r *Reader) { _ = r.Text() })
	fail("count", column([]byte{3, 0, 0, 0, 0, 0}), func(r *Reader) { r.Count(2) })
	fail("unread", column([]byte{1, 2}), func(r *Reader) { r.Byte() })
	fail("uint32", column(binary.AppendUvarint(nil, 1<<32)), func(r *Reader) { r.Uint32() })
	fail("overlong uvarint", column(bytes.Repeat([]byte{0xff}, 11)), func(r *Reader) { r.Uvarint() })
	fail("padded uvarint", column([]byte{0x81, 0x80, 0x00}), func(r *Reader) { r.Uvarint() })
	fail("padded varint", column([]byte{0x80, 0x00}), func(r *Reader) { r.Varint() })
	fail("padded count", column([]byte{0x81, 0x00, 9}), func(r *Reader) { r.Count(1) })
	fail("boolean", column([]byte{2}), func(r *Reader) { r.Bool() })
	fail("int32", column(binary.AppendVarint(nil, math.MaxInt32+1)), func(r *Reader) { r.Int32() })

	// Packed codes: each refusal leaves the decoder failed, reading
	// zero from then on.
	failBits := func(name string, in []byte, read func(d *BitDecoder)) {
		t.Helper()
		var d BitDecoder
		d.Reset(in)
		read(&d)
		if d.End() == nil {
			t.Fatalf("%s: no error", name)
		}
		if d.Bits(8) != 0 || d.Rice(0) != 0 {
			t.Fatalf("%s: reads after a failure return values", name)
		}
	}
	failBits("short bits", []byte{0xff}, func(d *BitDecoder) { d.Bits(9) })
	failBits("short Rice run", []byte{0}, func(d *BitDecoder) { d.Rice(0) })
	failBits("short Rice remainder", []byte{1}, func(d *BitDecoder) { d.Rice(8) })
	failBits("long packed length", []byte{1, 0}, func(d *BitDecoder) { d.Bits(1) })
	failBits("set pad bit", []byte{0b11}, func(d *BitDecoder) { d.Bits(1) })
	failBits("unary run past a uint64 under k = 63", []byte{0b100}, func(d *BitDecoder) { d.Rice(63) })
	failBits("unary run past a uint64 under k = 60", []byte{0, 0, 0b10}, func(d *BitDecoder) { d.Rice(60) })
	failBits("unary run to the end of the input", make([]byte, 1<<20), func(d *BitDecoder) { d.Rice(0) })

	bad := column([]byte{1, 2, 3})
	bad[len(bad)-1] ^= 1
	if err := NewReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Fatal("checksum mismatch accepted")
	}
	var hdr bytes.Buffer
	w := NewWriter(&hdr)
	w.Header(4, 8)
	_ = w.Flush()
	for i := range hdr.Len() {
		b := bytes.Clone(hdr.Bytes())
		b[i] ^= 0x20
		if _, _, err := NewReader(bytes.NewReader(b)).Header(); err == nil {
			t.Fatalf("header byte %d flipped and accepted", i)
		}
	}
}

// TestFrame: frames are kind, uvarint length and body, written in one
// Write each and read back in order through one buffer. A length over
// the reader's limit is refused before any of its body is read, a body
// over the writer's is refused with nothing written, a stream that ends
// inside a frame fails with ErrFrame, and neither direction keeps a
// buffer grown past keepFrame.
func TestFrame(t *testing.T) {
	var out countingWriter
	var f Frame
	send := func(kind byte, body []byte, limit uint64) (int, error) {
		b := f.Body()
		*b = append(*b, body...)
		return f.Send(&out, kind, limit)
	}
	big := bytes.Repeat([]byte{3}, 2*keepFrame)
	if n, err := send(7, []byte("abc"), 3); err != nil || n != 5 {
		t.Fatalf("a 3-byte body: %d bytes, %v", n, err)
	}
	if n, err := send(9, big, 0); err != nil || n != 1+3+len(big) {
		t.Fatalf("a %d-byte body: %d bytes, %v", len(big), n, err)
	}
	if cap(f.buf) > keepFrame {
		t.Fatalf("the writer keeps a %d-byte buffer", cap(f.buf))
	}
	writes := out.writes
	if n, err := send(7, []byte("abcd"), 3); !errors.Is(err, ErrFrame) || n != 0 || out.writes != writes {
		t.Fatalf("a body over the limit: %d bytes, %d writes, %v", n, out.writes-writes, err)
	}
	if want := append([]byte{7, 3, 'a', 'b', 'c', 9, 0x80, 0x80, 0x08}, big...); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("frames on the wire %x..., want %x...", out.Bytes()[:12], want[:12])
	}

	r := bufio.NewReader(bytes.NewReader(out.Bytes()))
	if kind, body, size, err := f.Read(r, 0); err != nil || kind != 7 || string(body) != "abc" || size != 5 {
		t.Fatalf("first frame: kind %d, body %q, size %d, %v", kind, body, size, err)
	}
	if kind, body, _, err := f.Read(r, 0); err != nil || kind != 9 || !bytes.Equal(body, big) {
		t.Fatalf("second frame: kind %d, %d bytes, %v", kind, len(body), err)
	}
	if cap(f.buf) > keepFrame {
		t.Fatalf("the reader keeps a %d-byte buffer", cap(f.buf))
	}
	if _, _, _, err := f.Read(r, 0); err != io.EOF {
		t.Fatalf("past the last frame: %v, want io.EOF", err)
	}

	claim := func(n uint64, sent int) []byte {
		return append(binary.AppendUvarint([]byte{1}, n), make([]byte, sent)...)
	}
	for _, tc := range []struct {
		name  string
		in    []byte
		limit uint64
	}{
		{"over the limit", claim(1<<20+16, 1<<20+16), 1 << 20},
		{"cut short", claim(1<<20, 16), 1 << 20},
		{"1 GiB claimed", claim(1<<30, 200), 0},
		{"no length", []byte{1}, 0},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := new(Frame).Read(bufio.NewReader(bytes.NewReader(tc.in)), tc.limit)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("%s: %v, want ErrFrame", tc.name, err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<10 {
			t.Fatalf("%s: %d bytes allocated on %d bytes of input", tc.name, grown, len(tc.in))
		}
	}
}

// countingWriter is a bytes.Buffer that counts its writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}
