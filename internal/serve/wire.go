// Package serve is SemTree's network serving tier: a standalone server
// that hosts per-tenant Searchers behind a concurrent length-prefixed
// binary protocol, a retrying Client whose calls share one connection
// and are told apart by request ID, and a distributed-quota allocator
// that leases refill shares to front-ends so a tenant's quota holds
// fleet-wide, not per process.
//
// The wire contract is deliberately narrow and stable:
//
//   - Frames are length-prefixed (uint32 big-endian, capped at
//     maxFrameSize) and carry one type byte plus a fixed-layout body.
//     Malformed bytes decode to a typed ErrProtocol, never a panic
//     (FuzzServeFrame enforces this).
//   - Each encoder (appendHello, appendSearch, ...) appends a whole
//     frame, length prefix included, to a buffer its connection reuses,
//     so a frame is built in place and sent in one Write. Each
//     connection also reads into one reused buffer; a decoded frame's
//     strings are substrings of one copy of its payload, so a decoded
//     frame never aliases that buffer.
//   - A connection opens with a versioned hello carrying the tenant's
//     auth token; the server maps the token onto that tenant's Searcher
//     — and therefore its admission limits and quota bucket.
//   - Each request carries an absolute deadline (unix nanoseconds,
//     0 = none) that the server rebuilds into a context, so an expired
//     query stops traversing the tree remotely exactly as it would in
//     process.
//   - Errors cross the wire as (code, message, detail) using the
//     facade's wire-stable error-code registry, so a server-side
//     rejection decodes client-side to the same sentinel under
//     errors.Is.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"semtree"
	"semtree/internal/triple"
)

// protoVersion is the serve protocol version, sent in both directions
// of the hello exchange. A server refuses a hello whose version it does
// not speak with ErrVersion rather than guessing at frame layouts.
const protoVersion uint32 = 1

// maxFrameSize caps one frame's payload. A length prefix beyond the cap
// is a protocol error before any allocation happens, so a hostile
// 4 GiB prefix cannot balloon memory.
const maxFrameSize = 1 << 20

// Frame type bytes. Append new types; never renumber.
const (
	ftHello       uint8 = 1 // client → server: version, auth token
	ftHelloAck    uint8 = 2 // server → client: version, error code/msg
	ftSearch      uint8 = 3 // client → server: one query
	ftResult      uint8 = 4 // server → client: one query's answer
	ftSnapshot    uint8 = 5 // client → server: admin snapshot trigger
	ftSnapshotAck uint8 = 6 // server → client: snapshot outcome
	ftLeaseReport uint8 = 7 // front-end → allocator: tenant demand
	ftLeaseGrant  uint8 = 8 // allocator → front-end: refill share
)

// helloFrame opens a connection: the client's protocol version and the
// tenant auth token.
type helloFrame struct {
	Version uint32
	Token   string
}

// helloAckFrame answers the hello. Code 0 means the connection is
// accepted; otherwise Code/Msg/Detail carry the typed rejection
// (ErrVersion, ErrAuth, ErrDraining) and the server closes the
// connection after writing the ack.
type helloAckFrame struct {
	Version uint32
	Code    semtree.ErrorCode
	Msg     string
}

// searchFrame is one query. Mode, K, Radius and ExactFactor are decoded
// into the facade's functional options (WithMode, WithK, WithRadius,
// WithExactFactor) over the tenant's searcher — the options surface is
// the single source of truth for what a wire request can express.
// Deadline is absolute unix nanoseconds; 0 means none.
type searchFrame struct {
	ReqID       uint64
	Deadline    int64
	Mode        uint8
	K           int64
	ExactFactor int64
	Radius      float64
	Query       triple.Triple
}

// resultFrame answers one searchFrame. HasErr marks a failed query;
// Code/Msg/Detail then decode to the original sentinel via
// semtree.DecodeError. Stats always describes what the query spent
// (zero for rejected queries — the admission contract). Stats and
// Matches are the facade's own types, so the server encodes a reply
// straight from its semtree.Result and the client decodes one straight
// into a semtree.Result.
type resultFrame struct {
	ReqID   uint64
	HasErr  bool
	Code    semtree.ErrorCode
	Msg     string
	Detail  uint64
	Stats   semtree.ExecStats
	Matches []semtree.Match
}

// snapshotFrame triggers a server-side Save (admin tenants only).
type snapshotFrame struct {
	ReqID uint64
}

// snapshotAckFrame reports the snapshot outcome and the byte size
// written.
type snapshotAckFrame struct {
	ReqID  uint64
	HasErr bool
	Code   semtree.ErrorCode
	Msg    string
	Detail uint64
	Bytes  uint64
}

// leaseReportFrame is a front-end's periodic demand report for one
// tenant: DemandQPS is the tenant's recent arrival rate (admitted plus
// quota-rejected queries per second) at this front-end.
type leaseReportFrame struct {
	Tenant    string
	FrontEnd  string
	DemandQPS float64
}

// leaseGrantFrame is the allocator's answer: this front-end's leased
// share of the tenant's fleet-wide bucket, valid for TTLNanos. The
// shares granted to all live front-ends of a tenant sum to the tenant's
// configured fleet-wide capacity and refill rate.
type leaseGrantFrame struct {
	Tenant       string
	Capacity     float64
	RefillPerSec float64
	TTLNanos     int64
}

// --- encoding ---
//
// All integers are big-endian. Strings are uint32 length + bytes. Each
// appendX appends one whole frame to a caller-owned buffer — its length
// prefix, filled in once the body is known, then the type byte and the
// body — so a frame is built in place and sent in one Write. Decoders
// consume an rbuf that latches the first error, so a malformed frame
// yields exactly one typed ErrProtocol and never panics or over-reads.

// frameHead is the length prefix in front of every frame's payload.
const frameHead = 4

// maxFrameBuffer caps the buffer a connection keeps between frames, as
// the cluster fabric does. Query frames stay far below it; a larger one
// is read or built in storage that is dropped after its frame instead
// of being held by an idle connection.
const maxFrameBuffer = 64 << 10

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTerm(b []byte, t triple.Term) []byte {
	b = appendU8(b, uint8(t.Kind))
	b = appendU8(b, uint8(t.LitType))
	b = appendStr(b, t.Prefix)
	return appendStr(b, t.Value)
}

func appendTriple(b []byte, t triple.Triple) []byte {
	b = appendTerm(b, t.Subject)
	b = appendTerm(b, t.Predicate)
	return appendTerm(b, t.Object)
}

// beginFrame appends a frame's length prefix, still zero, and its type
// byte, and returns where the frame starts for endFrame.
func beginFrame(b []byte, ft uint8) ([]byte, int) {
	start := len(b)
	return append(b, 0, 0, 0, 0, ft), start
}

// endFrame fills in the length prefix of the frame begun at start.
func endFrame(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-frameHead))
	return b
}

// rbuf is a latching frame reader: the first short read or cap breach
// sets err and every later read returns zero values, so decoders are
// written straight-line and checked once at the end. Strings decode as
// substrings of s, one copy of the whole payload: a frame's strings
// cost one allocation, and nothing decoded references the buffer the
// payload was read into, which the connection reuses for its next
// frame while a request decoded from this one may still be running.
type rbuf struct {
	b   []byte
	s   string
	off int
	err error
}

// openFrame starts decoding a payload that must be a frame of type ft.
func openFrame(payload []byte, ft uint8) rbuf {
	r := rbuf{b: payload}
	if got := r.u8(); r.err == nil && got != ft {
		r.err = fmt.Errorf("%w: frame type %d, want %d", ErrProtocol, got, ft)
	}
	if r.err == nil {
		r.s = string(payload)
	}
	return r
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrProtocol, r.off)
	}
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

// boolean is strict: only 0 and 1 are valid encodings, so every
// accepted frame is canonical (re-encodes byte-identically).
func (r *rbuf) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: non-canonical boolean at offset %d", ErrProtocol, r.off-1)
		}
		return false
	}
}

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

func (r *rbuf) term() triple.Term {
	var t triple.Term
	t.Kind = triple.TermKind(r.u8())
	t.LitType = triple.LiteralType(r.u8())
	t.Prefix = r.str()
	t.Value = r.str()
	return t
}

func (r *rbuf) triple() triple.Triple {
	var t triple.Triple
	t.Subject = r.term()
	t.Predicate = r.term()
	t.Object = r.term()
	return t
}

// done finishes a frame decode: the latched error if any, else a
// protocol error when the frame carried trailing bytes (a frame is
// exactly its layout, nothing more).
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(r.b)-r.off)
	}
	return nil
}

// --- per-frame encode/decode ---

func appendHello(b []byte, f helloFrame) []byte {
	b, start := beginFrame(b, ftHello)
	b = appendU32(b, f.Version)
	b = appendStr(b, f.Token)
	return endFrame(b, start)
}

func decodeHello(payload []byte) (f helloFrame, err error) {
	r := openFrame(payload, ftHello)
	f.Version = r.u32()
	f.Token = r.str()
	return f, r.done()
}

func appendHelloAck(b []byte, f helloAckFrame) []byte {
	b, start := beginFrame(b, ftHelloAck)
	b = appendU32(b, f.Version)
	b = appendU32(b, uint32(f.Code))
	b = appendStr(b, f.Msg)
	return endFrame(b, start)
}

func decodeHelloAck(payload []byte) (f helloAckFrame, err error) {
	r := openFrame(payload, ftHelloAck)
	f.Version = r.u32()
	f.Code = semtree.ErrorCode(r.u32())
	f.Msg = r.str()
	return f, r.done()
}

func appendSearch(b []byte, f searchFrame) []byte {
	b, start := beginFrame(b, ftSearch)
	b = appendU64(b, f.ReqID)
	b = appendI64(b, f.Deadline)
	b = appendU8(b, f.Mode)
	b = appendI64(b, f.K)
	b = appendI64(b, f.ExactFactor)
	b = appendF64(b, f.Radius)
	b = appendTriple(b, f.Query)
	return endFrame(b, start)
}

func decodeSearch(payload []byte) (f searchFrame, err error) {
	r := openFrame(payload, ftSearch)
	f.ReqID = r.u64()
	f.Deadline = r.i64()
	f.Mode = r.u8()
	f.K = r.i64()
	f.ExactFactor = r.i64()
	f.Radius = r.f64()
	f.Query = r.triple()
	return f, r.done()
}

// minMatchSize is the fewest bytes one match takes on the wire: ID,
// distance, three terms of two kind bytes and two empty strings each,
// two empty provenance strings, and Seq.
const minMatchSize = 8 + 8 + 3*(1+1+4+4) + 2*4 + 8

func appendResult(b []byte, f resultFrame) []byte {
	b, start := beginFrame(b, ftResult)
	b = appendU64(b, f.ReqID)
	b = appendBool(b, f.HasErr)
	b = appendU32(b, uint32(f.Code))
	b = appendStr(b, f.Msg)
	b = appendU64(b, f.Detail)
	b = appendI64(b, f.Stats.NodesVisited)
	b = appendI64(b, f.Stats.BucketsScanned)
	b = appendI64(b, f.Stats.DistanceEvals)
	b = appendI64(b, int64(f.Stats.Partitions))
	b = appendI64(b, f.Stats.FabricMessages)
	b = appendI64(b, f.Stats.ProbeMisses)
	b = appendI64(b, int64(f.Stats.Wall))
	b = appendStr(b, f.Stats.Protocol)
	b = appendU32(b, uint32(len(f.Matches)))
	for i := range f.Matches {
		m := &f.Matches[i]
		b = appendU64(b, uint64(m.ID))
		b = appendF64(b, m.Dist)
		b = appendTriple(b, m.Triple)
		b = appendStr(b, m.Prov.Doc)
		b = appendStr(b, m.Prov.Section)
		b = appendI64(b, int64(m.Prov.Seq))
	}
	return endFrame(b, start)
}

func decodeResult(payload []byte) (f resultFrame, err error) {
	r := openFrame(payload, ftResult)
	f.ReqID = r.u64()
	f.HasErr = r.boolean()
	f.Code = semtree.ErrorCode(r.u32())
	f.Msg = r.str()
	f.Detail = r.u64()
	f.Stats.NodesVisited = r.i64()
	f.Stats.BucketsScanned = r.i64()
	f.Stats.DistanceEvals = r.i64()
	f.Stats.Partitions = int(r.i64())
	f.Stats.FabricMessages = r.i64()
	f.Stats.ProbeMisses = r.i64()
	f.Stats.Wall = time.Duration(r.i64())
	f.Stats.Protocol = r.str()
	// A count the bytes left cannot hold is rejected before Matches is
	// sized from it.
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/minMatchSize {
		return f, fmt.Errorf("%w: match count %d exceeds frame", ErrProtocol, n)
	}
	if n > 0 {
		f.Matches = make([]semtree.Match, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m := &f.Matches[i]
		m.ID = triple.ID(r.u64())
		m.Dist = r.f64()
		m.Triple = r.triple()
		m.Prov.Doc = r.str()
		m.Prov.Section = r.str()
		m.Prov.Seq = int(r.i64())
	}
	return f, r.done()
}

func appendSnapshot(b []byte, f snapshotFrame) []byte {
	b, start := beginFrame(b, ftSnapshot)
	b = appendU64(b, f.ReqID)
	return endFrame(b, start)
}

func decodeSnapshot(payload []byte) (f snapshotFrame, err error) {
	r := openFrame(payload, ftSnapshot)
	f.ReqID = r.u64()
	return f, r.done()
}

func appendSnapshotAck(b []byte, f snapshotAckFrame) []byte {
	b, start := beginFrame(b, ftSnapshotAck)
	b = appendU64(b, f.ReqID)
	b = appendBool(b, f.HasErr)
	b = appendU32(b, uint32(f.Code))
	b = appendStr(b, f.Msg)
	b = appendU64(b, f.Detail)
	b = appendU64(b, f.Bytes)
	return endFrame(b, start)
}

func decodeSnapshotAck(payload []byte) (f snapshotAckFrame, err error) {
	r := openFrame(payload, ftSnapshotAck)
	f.ReqID = r.u64()
	f.HasErr = r.boolean()
	f.Code = semtree.ErrorCode(r.u32())
	f.Msg = r.str()
	f.Detail = r.u64()
	f.Bytes = r.u64()
	return f, r.done()
}

func appendLeaseReport(b []byte, f leaseReportFrame) []byte {
	b, start := beginFrame(b, ftLeaseReport)
	b = appendStr(b, f.Tenant)
	b = appendStr(b, f.FrontEnd)
	b = appendF64(b, f.DemandQPS)
	return endFrame(b, start)
}

func decodeLeaseReport(payload []byte) (f leaseReportFrame, err error) {
	r := openFrame(payload, ftLeaseReport)
	f.Tenant = r.str()
	f.FrontEnd = r.str()
	f.DemandQPS = r.f64()
	return f, r.done()
}

func appendLeaseGrant(b []byte, f leaseGrantFrame) []byte {
	b, start := beginFrame(b, ftLeaseGrant)
	b = appendStr(b, f.Tenant)
	b = appendF64(b, f.Capacity)
	b = appendF64(b, f.RefillPerSec)
	b = appendI64(b, f.TTLNanos)
	return endFrame(b, start)
}

func decodeLeaseGrant(payload []byte) (f leaseGrantFrame, err error) {
	r := openFrame(payload, ftLeaseGrant)
	f.Tenant = r.str()
	f.Capacity = r.f64()
	f.RefillPerSec = r.f64()
	f.TTLNanos = r.i64()
	return f, r.done()
}

// decodeFrame parses one frame payload (the bytes after the length
// prefix) into its typed struct through the decoder of its type byte —
// the same decoders the client and the server call directly when they
// know which frame they expect. Unknown types and malformed bodies
// return an error wrapping ErrProtocol; decodeFrame never panics —
// FuzzServeFrame holds it to that.
func decodeFrame(payload []byte) (any, error) {
	r := rbuf{b: payload}
	switch ft := r.u8(); ft {
	case ftHello:
		return boxed(decodeHello(payload))
	case ftHelloAck:
		return boxed(decodeHelloAck(payload))
	case ftSearch:
		return boxed(decodeSearch(payload))
	case ftResult:
		return boxed(decodeResult(payload))
	case ftSnapshot:
		return boxed(decodeSnapshot(payload))
	case ftSnapshotAck:
		return boxed(decodeSnapshotAck(payload))
	case ftLeaseReport:
		return boxed(decodeLeaseReport(payload))
	case ftLeaseGrant:
		return boxed(decodeLeaseGrant(payload))
	default:
		if r.err != nil {
			return nil, r.err // empty payload: no type byte at all
		}
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrProtocol, ft)
	}
}

// boxed returns a typed decoder's frame as decodeFrame's result, or
// only its error.
func boxed[F any](f F, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// writeFrame writes one frame an appendX built, in one Write. Callers
// serialize writes per connection (connWriter holds a lock; the hello
// and the lease exchange run one at a time on their connection).
func writeFrame(w io.Writer, frame []byte) error {
	if n := len(frame) - frameHead; n > maxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes exceeds cap", ErrProtocol, n)
	}
	_, err := w.Write(frame)
	return err
}

// frameReader reads one connection's frames through a bufio.Reader into
// one payload buffer it reuses from frame to frame.
type frameReader struct {
	br  *bufio.Reader
	hdr [frameHead]byte
	buf []byte
}

// readFrame reads one frame and returns its payload, which is valid
// only until the next call. An oversized length prefix is a typed
// protocol error surfaced before any payload allocation.
func (r *frameReader) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, err // transport-level: EOF on clean close
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("%w: frame length %d exceeds cap", ErrProtocol, n)
	}
	buf := r.buf
	if int(n) > cap(buf) {
		buf = make([]byte, n)
		if n <= maxFrameBuffer {
			r.buf = buf
		}
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, fmt.Errorf("%w: short frame: %v", ErrProtocol, err)
	}
	return payload, nil
}

// encodeError projects err onto the wire triplet via the facade
// registry.
func encodeError(err error) (code semtree.ErrorCode, msg string, detail uint64) {
	return semtree.CodeOf(err), err.Error(), semtree.ErrorDetail(err)
}
