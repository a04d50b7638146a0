// Package column is the byte format of everything this system encodes
// by hand: a persisted index and the messages of a TCP fabric. Values
// are uvarints, zigzag varints, single bytes, length-prefixed strings
// and raw little-endian float64s. An Appender appends them to a byte
// slice with no reflection and a Decoder reads them back; what a run of
// values means is its writer's business, and its reader's.
//
// A persisted index is a fixed header, then a sequence of columns. A
// column is a uvarint payload length, the payload, and the payload's
// CRC-32C (Castagnoli) as four little-endian bytes. A Writer appends
// values to the open column and End frames it. A Reader takes one
// column at a time into a buffer that grows only as bytes arrive, so a
// length prefix is believed only as far as the input backs it.
//
// Both TCP wires — a cluster fabric's and the serving tier's — carry
// messages as frames: a kind byte, a uvarint body length and the body.
// A Frame writes one frame at a time and reads one the same way as a
// Reader reads a column, after refusing a length over its caller's
// limit.
//
// Reads past the end of the input, counts that the bytes left cannot
// hold, a varint written longer than it needs (so each value has one
// encoding), a bad checksum, a frame over its limit and a short stream
// all fail with an error, never a panic.
package column

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
)

// Magic opens every stream; HeaderSize is the length of the fixed
// header: Magic, a version byte, the dimension as a little-endian
// uint32, and the CRC-32C of those twelve bytes.
const (
	Magic      = "SEMTREE"
	HeaderSize = len(Magic) + 1 + 4 + 4
)

// castagnoli is built on first use: the tables cost ~9 KiB of heap,
// which a process that never saves or loads should not carry.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// Appender appends values to a byte slice. The zero value is empty and
// ready to use.
type Appender []byte

// Uvarint appends v.
func (a *Appender) Uvarint(v uint64) { *a = binary.AppendUvarint(*a, v) }

// Varint appends v, zigzag-encoded.
func (a *Appender) Varint(v int64) { *a = binary.AppendVarint(*a, v) }

// Byte appends one byte.
func (a *Appender) Byte(b byte) { *a = append(*a, b) }

// Bool appends v as one byte, 0 or 1.
func (a *Appender) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	a.Byte(b)
}

// Float appends the raw little-endian bits of f.
func (a *Appender) Float(f float64) {
	*a = binary.LittleEndian.AppendUint64(*a, math.Float64bits(f))
}

// Floats appends the raw little-endian bits of every value of fs: the
// bytes of one Float call per value, written into one growth.
func (a *Appender) Floats(fs []float64) {
	n := len(*a)
	*a = slices.Grow(*a, 8*len(fs))[:n+8*len(fs)]
	b := (*a)[n:]
	for i, f := range fs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
}

// Uint64 appends v as eight big-endian bytes, the layout of the ReqID
// that opens every body on both TCP wires.
func (a *Appender) Uint64(v uint64) { *a = binary.BigEndian.AppendUint64(*a, v) }

// Text appends len(s) and the bytes of s.
func (a *Appender) Text(s string) {
	a.Uvarint(uint64(len(s)))
	*a = append(*a, s...)
}

// Block frames the bytes appended since offset start as a
// length-prefixed block, what Decoder.Block reads: it inserts their
// length before them, moving them up by its width.
func (a *Appender) Block(start int) {
	var n [binary.MaxVarintLen64]byte
	*a = slices.Insert(*a, start, n[:binary.PutUvarint(n[:], uint64(len(*a)-start))]...)
}

// Writer appends values to the open column — its Appender — and frames
// it on End. Errors are sticky: the first write error is returned by
// Flush.
type Writer struct {
	Appender // the open column's payload
	w        *bufio.Writer
	err      error
}

// NewWriter returns a writer buffering onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Header writes the fixed header.
func (w *Writer) Header(version byte, dim uint32) {
	h := append([]byte(Magic), version)
	h = binary.LittleEndian.AppendUint32(h, dim)
	w.write(binary.LittleEndian.AppendUint32(h, crc32.Checksum(h, castagnoli())))
}

// End frames the open column — length, payload, checksum — and opens
// the next one.
func (w *Writer) End() {
	w.write(binary.AppendUvarint(nil, uint64(len(w.Appender))))
	w.write(w.Appender)
	w.write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(w.Appender, castagnoli())))
	w.Appender = w.Appender[:0]
}

func (w *Writer) write(p []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(p)
	}
}

// Flush writes out everything buffered and reports the first error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// errShort reports input that ended before its reader did; the
// Decoder's other failures are described by its error text.
var errShort = errors.New("column: value runs past the end of its input")

// Decoder reads values an Appender appended. Once a read fails, it and
// every later one return zero and Err reports the first failure, so a
// caller reads a whole record and checks once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Reset makes b the decoder's input and clears its failure.
func (d *Decoder) Reset(b []byte) { *d = Decoder{buf: b} }

// Fail records err as the decoder's failure, unless an earlier one is
// recorded, and consumes the rest of the input.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.buf)
}

// Err reports the first failure.
func (d *Decoder) Err() error { return d.err }

// End reports the first failure, or bytes left unread.
func (d *Decoder) End() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail(fmt.Errorf("column: %d unread bytes", len(d.buf)-d.off))
	}
	return d.err
}

// Len returns the bytes left unread.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Rest returns the bytes left unread and consumes them; they alias the
// input.
func (d *Decoder) Rest() []byte {
	b := d.buf[d.off:]
	d.off = len(d.buf)
	return b
}

// Uvarint reads a uvarint. One written longer than it needs — a last
// byte of zero after others — is refused, so a value has one encoding.
func (d *Decoder) Uvarint() uint64 {
	v, k := binary.Uvarint(d.buf[d.off:])
	if k <= 0 {
		d.Fail(errShort)
		return 0
	}
	if k > 1 && d.buf[d.off+k-1] == 0 {
		d.Fail(fmt.Errorf("column: a %d-byte varint of %d", k, v))
		return 0
	}
	d.off += k
	return v
}

// Uint32 reads a uvarint that must fit in 32 bits.
func (d *Decoder) Uint32() uint32 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.Fail(fmt.Errorf("column: %d does not fit in 32 bits", v))
		return 0
	}
	return uint32(v)
}

// Varint reads a zigzag varint, refusing one written longer than it
// needs as Uvarint does.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int32 reads a zigzag varint that must fit in 32 bits.
func (d *Decoder) Int32() int32 {
	v := d.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.Fail(fmt.Errorf("column: %d does not fit in 32 bits", v))
		return 0
	}
	return int32(v)
}

// Count reads a uvarint count of items that each take at least size
// bytes of the input left, failing when they cannot fit — so a count is
// safe to allocate by.
func (d *Decoder) Count(size int) int {
	n := d.Uvarint()
	if n > uint64(d.Len()/size) {
		d.Fail(fmt.Errorf("column: count %d of %d-byte items exceeds the %d bytes left", n, size, d.Len()))
		return 0
	}
	return int(n)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.Len() < 1 {
		d.Fail(errShort)
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

// Bool reads a byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	switch b := d.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		d.Fail(fmt.Errorf("column: boolean byte %d", b))
		return false
	}
}

// Float reads a raw little-endian float64.
func (d *Decoder) Float() float64 {
	if d.Len() < 8 {
		d.Fail(errShort)
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off-8:]))
}

// Uint64 reads eight big-endian bytes.
func (d *Decoder) Uint64() uint64 {
	if d.Len() < 8 {
		d.Fail(errShort)
		return 0
	}
	d.off += 8
	return binary.BigEndian.Uint64(d.buf[d.off-8:])
}

// Floats fills dst with raw little-endian float64s.
func (d *Decoder) Floats(dst []float64) {
	if d.Len() < 8*len(dst) {
		d.Fail(errShort)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
}

// Text reads a length-prefixed string.
func (d *Decoder) Text() string { return string(d.Block()) }

// Block reads a length-prefixed block of bytes; they alias the input.
func (d *Decoder) Block() []byte {
	n := d.Count(1)
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// readN reads exactly n bytes from r into buf's storage and returns
// them. It grows buf only as bytes arrive, so a length claiming more
// than r holds fails with io.ErrUnexpectedEOF having allocated about
// twice what r held, never n.
func readN(r io.Reader, buf []byte, n uint64) ([]byte, error) {
	buf = buf[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(max(len(buf), 512)))))
		}
		end := cap(buf)
		if uint64(end) > n {
			end = int(n)
		}
		k, err := io.ReadFull(r, buf[len(buf):end])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// A frame is one message on a TCP wire:
//
//	frame = kind:byte  length:uvarint  body[length]
//
// ErrFrame marks a frame refused or cut short: a length over the
// reader's limit, a body over the writer's, a malformed length, or a
// stream that ended inside the frame.
var ErrFrame = errors.New("column: bad frame")

// frameHead is the most a frame's kind byte and length take.
const frameHead = 1 + binary.MaxVarintLen64

// keepFrame caps the buffer a Frame keeps from one frame to the next.
// A larger frame is read or built in storage that is dropped after it,
// not held by an idle connection.
const keepFrame = 64 << 10

// Frame is one connection end's frame buffer: the frame being written,
// or the body just read. The zero value is ready to use. A limit of 0
// is none.
type Frame struct{ buf Appender }

// Body starts a frame: it empties the buffer, leaving room in front for
// the head Send fills in, and returns it for the body to be appended
// to.
func (f *Frame) Body() *Appender {
	f.buf = append(f.buf[:0], make([]byte, frameHead)...)
	return &f.buf
}

// Send writes the frame Body began, under kind, in one Write and
// returns its size. A body over limit is refused with ErrFrame and
// nothing is written, so the stream stays in step.
func (f *Frame) Send(w io.Writer, kind byte, limit uint64) (int, error) {
	n := uint64(len(f.buf) - frameHead)
	size := 0
	var err error
	if limit > 0 && n > limit {
		err = fmt.Errorf("%w: a %d-byte body, limit %d", ErrFrame, n, limit)
	} else {
		var head [frameHead]byte
		h := binary.AppendUvarint(append(head[:0], kind), n)
		frame := f.buf[frameHead-len(h):]
		copy(frame, h)
		size = len(frame)
		_, err = w.Write(frame)
	}
	if cap(f.buf) > keepFrame {
		f.buf = nil
	}
	return size, err
}

// Read reads one frame and returns its kind, its body and its size. The
// body is valid until the next Body or Read. A length over limit is
// refused before any of the body is read, and the body is read as it
// arrives (readN), so a length the stream does not back costs about
// what the stream held. A stream that ends before the kind byte returns
// its error as is (io.EOF on a clean close); any later failure wraps
// ErrFrame.
func (f *Frame) Read(r *bufio.Reader, limit uint64) (kind byte, body []byte, size int, err error) {
	if kind, err = r.ReadByte(); err != nil {
		return 0, nil, 0, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: length: %w", ErrFrame, err)
	}
	if limit > 0 && n > limit {
		return 0, nil, 0, fmt.Errorf("%w: a %d-byte body, limit %d", ErrFrame, n, limit)
	}
	body, err = readN(r, f.buf, n)
	if cap(body) <= keepFrame {
		f.buf = body
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: %d of %d bytes: %w", ErrFrame, len(body), n, err)
	}
	var head [binary.MaxVarintLen64]byte
	return kind, body, 1 + binary.PutUvarint(head[:], n) + len(body), nil
}

// Reader reads a stream a Writer wrote, one column at a time: its
// Decoder reads the current column, and a failure is sticky across
// columns.
type Reader struct {
	Decoder // the current column's payload, its buffer reused across columns
	r       *bufio.Reader
}

// NewReader returns a reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Header reads and checks the fixed header.
func (r *Reader) Header() (version byte, dim uint32, err error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r.r, h[:]); err != nil {
		return 0, 0, fmt.Errorf("column: header: %w", err)
	}
	if string(h[:len(Magic)]) != Magic {
		return 0, 0, errors.New("column: not a semtree snapshot (bad magic)")
	}
	body := h[:HeaderSize-4]
	if crc32.Checksum(body, castagnoli()) != binary.LittleEndian.Uint32(h[HeaderSize-4:]) {
		return 0, 0, errors.New("column: header checksum mismatch")
	}
	return h[len(Magic)], binary.LittleEndian.Uint32(h[len(Magic)+1:]), nil
}

// Next reads the next column and makes it current.
func (r *Reader) Next() error {
	if r.err != nil {
		return r.err
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return r.fail(fmt.Errorf("column: length: %w", err))
	}
	r.buf, err = readN(r.r, r.buf, n)
	r.off = 0
	if err != nil {
		return r.fail(fmt.Errorf("column: payload: %d of %d bytes: %w", len(r.buf), n, err))
	}
	var sum [4]byte
	if _, err := io.ReadFull(r.r, sum[:]); err != nil {
		return r.fail(fmt.Errorf("column: checksum: %w", err))
	}
	if crc32.Checksum(r.buf, castagnoli()) != binary.LittleEndian.Uint32(sum[:]) {
		return r.fail(errors.New("column: checksum mismatch"))
	}
	return nil
}

func (r *Reader) fail(err error) error {
	r.Fail(err)
	return r.err
}
