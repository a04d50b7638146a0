// Package serve is SemTree's network serving tier: a standalone server
// that hosts per-tenant Searchers behind a concurrent length-prefixed
// binary protocol, a pooled retrying Client, and a distributed-quota
// allocator that leases refill shares to front-ends so a tenant's quota
// holds fleet-wide, not per process.
//
// The wire contract is deliberately narrow and stable:
//
//   - Frames are length-prefixed (uint32 big-endian, capped at
//     maxFrameSize) and carry one type byte plus a fixed-layout body.
//     Malformed bytes decode to a typed ErrProtocol, never a panic
//     (FuzzServeFrame enforces this).
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
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// wireStats is ExecStats in wire layout.
type wireStats struct {
	NodesVisited   int64
	BucketsScanned int64
	DistanceEvals  int64
	Partitions     int64
	FabricMessages int64
	ProbeMisses    int64
	WallNanos      int64
	Protocol       string
}

// wireMatch is one retrieval result in wire layout.
type wireMatch struct {
	ID      uint64
	Dist    float64
	Triple  triple.Triple
	Doc     string
	Section string
	Seq     int64
}

// resultFrame answers one searchFrame. HasErr marks a failed query;
// Code/Msg/Detail then decode to the original sentinel via
// semtree.DecodeError. Stats always describes what the query spent
// (zero for rejected queries — the admission contract).
type resultFrame struct {
	ReqID   uint64
	HasErr  bool
	Code    semtree.ErrorCode
	Msg     string
	Detail  uint64
	Stats   wireStats
	Matches []wireMatch
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
// All integers are big-endian. Strings are uint32 length + bytes.
// Encoders append to a caller-owned buffer; decoders consume an rbuf
// that latches the first error, so a malformed frame yields exactly one
// typed ErrProtocol and never panics or over-reads.

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

// rbuf is a latching frame reader: the first short read or cap breach
// sets err and every later read returns zero values, so decoders are
// written straight-line and checked once at the end.
type rbuf struct {
	b   []byte
	off int
	err error
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
	s := string(r.b[r.off : r.off+n])
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

func encodeHello(f helloFrame) []byte {
	b := appendU8(nil, ftHello)
	b = appendU32(b, f.Version)
	return appendStr(b, f.Token)
}

func encodeHelloAck(f helloAckFrame) []byte {
	b := appendU8(nil, ftHelloAck)
	b = appendU32(b, f.Version)
	b = appendU32(b, uint32(f.Code))
	return appendStr(b, f.Msg)
}

func encodeSearch(f searchFrame) []byte {
	b := appendU8(nil, ftSearch)
	b = appendU64(b, f.ReqID)
	b = appendI64(b, f.Deadline)
	b = appendU8(b, f.Mode)
	b = appendI64(b, f.K)
	b = appendI64(b, f.ExactFactor)
	b = appendF64(b, f.Radius)
	return appendTriple(b, f.Query)
}

func encodeResult(f resultFrame) []byte {
	b := appendU8(nil, ftResult)
	b = appendU64(b, f.ReqID)
	b = appendBool(b, f.HasErr)
	b = appendU32(b, uint32(f.Code))
	b = appendStr(b, f.Msg)
	b = appendU64(b, f.Detail)
	b = appendI64(b, f.Stats.NodesVisited)
	b = appendI64(b, f.Stats.BucketsScanned)
	b = appendI64(b, f.Stats.DistanceEvals)
	b = appendI64(b, f.Stats.Partitions)
	b = appendI64(b, f.Stats.FabricMessages)
	b = appendI64(b, f.Stats.ProbeMisses)
	b = appendI64(b, f.Stats.WallNanos)
	b = appendStr(b, f.Stats.Protocol)
	b = appendU32(b, uint32(len(f.Matches)))
	for _, m := range f.Matches {
		b = appendU64(b, m.ID)
		b = appendF64(b, m.Dist)
		b = appendTriple(b, m.Triple)
		b = appendStr(b, m.Doc)
		b = appendStr(b, m.Section)
		b = appendI64(b, m.Seq)
	}
	return b
}

func encodeSnapshot(f snapshotFrame) []byte {
	b := appendU8(nil, ftSnapshot)
	return appendU64(b, f.ReqID)
}

func encodeSnapshotAck(f snapshotAckFrame) []byte {
	b := appendU8(nil, ftSnapshotAck)
	b = appendU64(b, f.ReqID)
	b = appendBool(b, f.HasErr)
	b = appendU32(b, uint32(f.Code))
	b = appendStr(b, f.Msg)
	b = appendU64(b, f.Detail)
	return appendU64(b, f.Bytes)
}

func encodeLeaseReport(f leaseReportFrame) []byte {
	b := appendU8(nil, ftLeaseReport)
	b = appendStr(b, f.Tenant)
	b = appendStr(b, f.FrontEnd)
	return appendF64(b, f.DemandQPS)
}

func encodeLeaseGrant(f leaseGrantFrame) []byte {
	b := appendU8(nil, ftLeaseGrant)
	b = appendStr(b, f.Tenant)
	b = appendF64(b, f.Capacity)
	b = appendF64(b, f.RefillPerSec)
	return appendI64(b, f.TTLNanos)
}

// decodeFrame parses one frame payload (the bytes after the length
// prefix) into its typed struct. Unknown types and malformed bodies
// return an error wrapping ErrProtocol; decodeFrame never panics —
// FuzzServeFrame holds it to that.
func decodeFrame(payload []byte) (any, error) {
	r := &rbuf{b: payload}
	switch ft := r.u8(); ft {
	case ftHello:
		var f helloFrame
		f.Version = r.u32()
		f.Token = r.str()
		return f, r.done()
	case ftHelloAck:
		var f helloAckFrame
		f.Version = r.u32()
		f.Code = semtree.ErrorCode(r.u32())
		f.Msg = r.str()
		return f, r.done()
	case ftSearch:
		var f searchFrame
		f.ReqID = r.u64()
		f.Deadline = r.i64()
		f.Mode = r.u8()
		f.K = r.i64()
		f.ExactFactor = r.i64()
		f.Radius = r.f64()
		f.Query = r.triple()
		return f, r.done()
	case ftResult:
		var f resultFrame
		f.ReqID = r.u64()
		f.HasErr = r.boolean()
		f.Code = semtree.ErrorCode(r.u32())
		f.Msg = r.str()
		f.Detail = r.u64()
		f.Stats.NodesVisited = r.i64()
		f.Stats.BucketsScanned = r.i64()
		f.Stats.DistanceEvals = r.i64()
		f.Stats.Partitions = r.i64()
		f.Stats.FabricMessages = r.i64()
		f.Stats.ProbeMisses = r.i64()
		f.Stats.WallNanos = r.i64()
		f.Stats.Protocol = r.str()
		n := int(r.u32())
		// Each match is ≥ 50 bytes on the wire; a count the payload
		// cannot possibly hold is rejected before allocation.
		if r.err == nil && n > len(r.b)/50+1 {
			return nil, fmt.Errorf("%w: match count %d exceeds frame", ErrProtocol, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var m wireMatch
			m.ID = r.u64()
			m.Dist = r.f64()
			m.Triple = r.triple()
			m.Doc = r.str()
			m.Section = r.str()
			m.Seq = r.i64()
			f.Matches = append(f.Matches, m)
		}
		return f, r.done()
	case ftSnapshot:
		var f snapshotFrame
		f.ReqID = r.u64()
		return f, r.done()
	case ftSnapshotAck:
		var f snapshotAckFrame
		f.ReqID = r.u64()
		f.HasErr = r.boolean()
		f.Code = semtree.ErrorCode(r.u32())
		f.Msg = r.str()
		f.Detail = r.u64()
		f.Bytes = r.u64()
		return f, r.done()
	case ftLeaseReport:
		var f leaseReportFrame
		f.Tenant = r.str()
		f.FrontEnd = r.str()
		f.DemandQPS = r.f64()
		return f, r.done()
	case ftLeaseGrant:
		var f leaseGrantFrame
		f.Tenant = r.str()
		f.Capacity = r.f64()
		f.RefillPerSec = r.f64()
		f.TTLNanos = r.i64()
		return f, r.done()
	default:
		if r.err != nil {
			return nil, r.err // empty payload: no type byte at all
		}
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrProtocol, ft)
	}
}

// writeFrame writes one length-prefixed frame. Callers serialize writes
// per connection (the server holds a per-connection write mutex; the
// client runs one request per pooled connection).
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes exceeds cap", ErrProtocol, len(payload))
	}
	hdr := appendU32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	_, err := w.Write(append(hdr, payload...))
	return err
}

// readFrame reads one length-prefixed frame payload. An oversized
// length prefix is a typed protocol error surfaced before any payload
// allocation.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // transport-level: EOF on clean close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("%w: frame length %d exceeds cap", ErrProtocol, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short frame: %v", ErrProtocol, err)
	}
	return payload, nil
}

// readMessage reads one frame and decodes it.
func readMessage(r io.Reader) (any, error) {
	payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	return decodeFrame(payload)
}

// encodeError projects err onto the wire triplet via the facade
// registry.
func encodeError(err error) (code semtree.ErrorCode, msg string, detail uint64) {
	return semtree.CodeOf(err), err.Error(), semtree.ErrorDetail(err)
}
