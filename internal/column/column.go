// Package column is the byte format of a persisted index: a fixed
// header, then a sequence of columns. A column is a uvarint payload
// length, the payload, and the payload's CRC-32C (Castagnoli) as four
// little-endian bytes. Payload values are uvarints, zigzag varints,
// single bytes, length-prefixed strings and raw little-endian float64s;
// what a column holds is its writer's business, and its reader's.
//
// Writing uses no reflection: values are appended to the open column
// and End frames it. Reading takes one column at a time into a buffer
// that grows only as bytes arrive, so a length prefix is believed only
// as far as the input backs it; reads past a column's end, counts that
// its remaining bytes cannot hold, a bad checksum and a short stream
// all fail with an error, never a panic.
package column

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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

// Writer appends values to the open column and frames it on End.
// Errors are sticky: the first write error is returned by Flush.
type Writer struct {
	w   *bufio.Writer
	buf []byte // the open column's payload
	err error
}

// NewWriter returns a writer buffering onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Header writes the fixed header.
func (w *Writer) Header(version byte, dim uint32) {
	h := append([]byte(Magic), version)
	h = binary.LittleEndian.AppendUint32(h, dim)
	w.write(binary.LittleEndian.AppendUint32(h, crc32.Checksum(h, castagnoli())))
}

// Uvarint appends v to the open column.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends v, zigzag-encoded.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Float appends the raw little-endian bits of f.
func (w *Writer) Float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// Text appends len(s) and the bytes of s.
func (w *Writer) Text(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// End frames the open column — length, payload, checksum — and opens
// the next one.
func (w *Writer) End() {
	w.write(binary.AppendUvarint(nil, uint64(len(w.buf))))
	w.write(w.buf)
	w.write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(w.buf, castagnoli())))
	w.buf = w.buf[:0]
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

// errShort reports a column that ended before its reader did; the
// Reader's other failures are described by its error text.
var errShort = errors.New("column: value runs past the end of its column")

// Reader reads a stream a Writer wrote. Value reads decode from the
// current column; once one fails, it and every later one return zero
// and Err reports the first failure.
type Reader struct {
	r   *bufio.Reader
	buf []byte // the current column's payload, reused across columns
	off int
	err error
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

// Next reads the next column and makes it current. The payload is read
// through an io.LimitReader into a buffer grown as bytes arrive.
func (r *Reader) Next() error {
	if r.err != nil {
		return r.err
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		return r.fail(fmt.Errorf("column: length: %w", err))
	}
	if n > math.MaxInt64 {
		return r.fail(fmt.Errorf("column: length %d out of range", n))
	}
	b := bytes.NewBuffer(r.buf[:0])
	if _, err := b.ReadFrom(io.LimitReader(r.r, int64(n))); err != nil {
		return r.fail(fmt.Errorf("column: payload: %w", err))
	}
	r.buf, r.off = b.Bytes(), 0
	if uint64(len(r.buf)) != n {
		return r.fail(fmt.Errorf("column: payload: %d of %d bytes: %w", len(r.buf), n, io.ErrUnexpectedEOF))
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

// End reports the first failure reading the current column, or bytes
// left in it unread.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail(fmt.Errorf("column: %d unread bytes", len(r.buf)-r.off))
	}
	return r.err
}

// Err reports the first failure.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.buf)
	return r.err
}

// Len returns the bytes left in the current column.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	v, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.fail(errShort)
		return 0
	}
	r.off += k
	return v
}

// Uint32 reads a uvarint that must fit in 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("column: %d does not fit in 32 bits", v))
		return 0
	}
	return uint32(v)
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v, k := binary.Varint(r.buf[r.off:])
	if k <= 0 {
		r.fail(errShort)
		return 0
	}
	r.off += k
	return v
}

// Count reads a uvarint count of items that each take at least size
// bytes of the rest of the column, failing when they cannot fit — so a
// count is safe to allocate by.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/size) {
		r.fail(fmt.Errorf("column: count %d of %d-byte items exceeds the %d bytes left", n, size, r.Len()))
		return 0
	}
	return int(n)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Len() < 1 {
		r.fail(errShort)
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Float reads a raw little-endian float64.
func (r *Reader) Float() float64 {
	if r.Len() < 8 {
		r.fail(errShort)
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off-8:]))
}

// Floats fills dst with raw little-endian float64s.
func (r *Reader) Floats(dst []float64) {
	if r.Len() < 8*len(dst) {
		r.fail(errShort)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
}

// Text reads a length-prefixed string.
func (r *Reader) Text() string {
	n := r.Count(1)
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
