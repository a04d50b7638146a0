package column

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Packed codes: values packed LSB-first into bytes, the last byte
// padded with zero bits. A code is either fixed-width (the low width
// bits of a value) or a Rice code with parameter k: v>>k as a unary run
// — that many zero bits, then a one — followed by the low k bits of v.
// A store's row codes and a partition's bucket IDs are written this
// way. A BitWriter packs codes onto an Appender and a BitDecoder reads
// them back; the decoder refuses input no BitWriter would have written
// for the codes read — bytes left over, a set pad bit, a unary run
// longer than any uint64 needs — so packed codes have one encoding.

// BitWriter packs codes onto the Appender A. Flush writes out the last,
// padded byte.
type BitWriter struct {
	A   *Appender
	acc uint64 // the bits not yet appended, n of them: fewer than 8 between calls
	n   int
}

// Bits appends the low width bits of v, width at most 64.
func (w *BitWriter) Bits(v uint64, width int) {
	if width > 56 { // acc holds up to 7 bits already
		w.Bits(v, 32)
		w.Bits(v>>32, width-32)
		return
	}
	w.acc |= (v & (1<<width - 1)) << w.n
	for w.n += width; w.n >= 8; w.n -= 8 {
		w.A.Byte(byte(w.acc))
		w.acc >>= 8
	}
}

// Rice appends the Rice code of v with parameter k, k below 64.
func (w *BitWriter) Rice(v uint64, k int) {
	q := v >> k
	if q+1+uint64(k) <= 56 { // the whole code in one write, as most are
		w.Bits(1<<q|(v&(1<<k-1))<<(q+1), int(q)+1+k)
		return
	}
	for ; q >= 32; q -= 32 {
		w.Bits(0, 32)
	}
	w.Bits(1<<q, int(q)+1)
	w.Bits(v, k)
}

// Flush appends the bits not yet appended as a last byte padded with
// zero bits, if there are any.
func (w *BitWriter) Flush() {
	if w.n > 0 {
		w.A.Byte(byte(w.acc))
		w.acc, w.n = 0, 0
	}
}

// BitDecoder reads codes a BitWriter packed. Once a read fails, it and
// every later one return zero, and Err reports the first failure, so a
// caller reads a whole run and checks once.
type BitDecoder struct {
	buf []byte
	acc uint64 // the bits taken from buf but not yet decoded, n of them
	n   uint
	err error
}

// Reset makes b the decoder's input and clears its failure.
func (d *BitDecoder) Reset(b []byte) { *d = BitDecoder{buf: b} }

// Err reports the first failure.
func (d *BitDecoder) Err() error { return d.err }

func (d *BitDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf, d.acc, d.n = nil, 0, 0
}

// fill takes whole bytes from the input while acc has room for them,
// eight at a time where eight remain.
func (d *BitDecoder) fill() {
	if len(d.buf) >= 8 {
		take := (64 - d.n) / 8
		d.acc |= binary.LittleEndian.Uint64(d.buf) & (1<<(8*take) - 1) << d.n
		d.buf = d.buf[take:]
		d.n += 8 * take
		return
	}
	for ; d.n <= 56 && len(d.buf) > 0; d.n += 8 {
		d.acc |= uint64(d.buf[0]) << d.n
		d.buf = d.buf[1:]
	}
}

// take consumes width bits from acc, which holds them, and returns them.
func (d *BitDecoder) take(width uint) uint64 {
	v := d.acc & (1<<width - 1)
	d.acc >>= width
	d.n -= width
	return v
}

// Bits reads a fixed-width code of width bits, width at most 64.
func (d *BitDecoder) Bits(width int) uint64 {
	if w := uint(width); w <= d.n {
		return d.take(w)
	}
	return d.bitsSlow(width)
}

// bitsSlow is Bits when acc holds fewer than width bits.
func (d *BitDecoder) bitsSlow(width int) uint64 {
	if width > 56 { // more than fill guarantees
		lo := d.Bits(32)
		return lo | d.Bits(width-32)<<32
	}
	if d.fill(); d.n < uint(width) {
		d.fail(errShort)
		return 0
	}
	return d.take(uint(width))
}

// Rice reads a Rice code with parameter k, k below 64. A unary run
// longer than the largest uint64 needs under k is refused as soon as it
// is, so a run of zero bytes costs no more than its length to refuse.
func (d *BitDecoder) Rice(k int) uint64 {
	// A code that lies in acc whole, as most do: its run is at most
	// 63-k bits, which any uint64 under k may need.
	if z := uint(bits.TrailingZeros64(d.acc)); z+1+uint(k) <= d.n {
		d.acc >>= z + 1
		d.n -= z + 1
		return uint64(z)<<k | d.take(uint(k))
	}
	return d.riceSlow(k)
}

// riceSlow is Rice for a code that runs past the bits in acc.
func (d *BitDecoder) riceSlow(k int) uint64 {
	if d.fill(); d.acc != 0 {
		if z := uint(bits.TrailingZeros64(d.acc)); z+1+uint(k) <= d.n {
			d.acc >>= z + 1
			d.n -= z + 1
			return uint64(z)<<k | d.take(uint(k))
		}
	}
	limit := uint64(math.MaxUint64) >> k
	var q uint64
	for d.acc == 0 {
		q += uint64(d.n)
		d.n = 0
		switch d.fill(); {
		case q > limit:
			d.fail(fmt.Errorf("column: a unary run of %d bits or more under parameter %d", q, k))
			return 0
		case d.n == 0:
			d.fail(errShort)
			return 0
		}
	}
	z := uint(bits.TrailingZeros64(d.acc))
	if q += uint64(z); q > limit {
		d.fail(fmt.Errorf("column: a unary run of %d bits under parameter %d", q, k))
		return 0
	}
	d.acc >>= z + 1
	d.n -= z + 1
	return q<<k | d.Bits(k)
}

// End reports the first failure, or input no BitWriter would have
// left after the codes read: a whole byte unread, or a pad bit set.
func (d *BitDecoder) End() error {
	switch {
	case d.err != nil:
	case len(d.buf) > 0 || d.n >= 8:
		d.fail(fmt.Errorf("column: %d unread bytes after the packed codes", len(d.buf)+int(d.n/8)))
	case d.acc != 0:
		d.fail(fmt.Errorf("column: the packed codes' pad bits are %#x, not zero", d.acc))
	}
	return d.err
}

// RiceParam picks the Rice parameter of a run of values: Add every
// value, then read K. A writer picks its parameter this way and a
// reader checks the one it was given against it, so a run has one
// encoding.
type RiceParam struct {
	n, hi, lo uint64 // the count, and the 128-bit sum
}

// Add counts v among the run's values.
func (p *RiceParam) Add(v uint64) {
	var carry uint64
	p.lo, carry = bits.Add64(p.lo, v, 0)
	p.hi += carry
	p.n++
}

// K returns the parameter k below 64 that minimizes T>>k + n(k+1), T
// the values' sum and n their count — the bits their Rice codes take,
// Σ v>>k + n(k+1), but for the parts of each v/2^k below one, which
// come to less than n under any k — the smallest on a tie (0 for no
// value). Reading T>>k for Σ v>>k costs a bit a value at most and
// needs only the sum, which a reader keeps as it decodes.
func (p *RiceParam) K() int {
	best, fewest := 0, uint64(math.MaxUint64)
	for k := range 64 {
		if p.hi>>k != 0 {
			continue // T>>k is 2^64 or more
		}
		t := p.hi<<(64-k) | p.lo>>k
		if t >= 1<<62 {
			continue // more than k = 63 comes to, at most 66n
		}
		if b := t + p.n*uint64(k+1); b < fewest {
			best, fewest = k, b
		}
	}
	return best
}
