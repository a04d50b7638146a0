// Package serve is SemTree's network serving tier: a standalone server
// that hosts per-tenant Searchers behind a concurrent framed binary
// protocol, a retrying Client whose calls share one connection and are
// told apart by request ID, and a distributed-quota allocator that
// leases refill shares to front-ends so a tenant's quota holds
// fleet-wide, not per process.
//
// The wire contract is deliberately narrow and stable:
//
//   - Frames are the cluster fabric's (column.Frame): a type byte, a
//     uvarint body length capped at maxFrameSize, and a fixed-layout
//     body. A length over the cap is refused before any of the body is
//     read; malformed bytes decode to a typed ErrProtocol, never a
//     panic (FuzzServeFrame enforces this).
//   - Each encoder (appendHello, appendSearch, ...) appends a body to a
//     buffer its connection reuses, and the frame goes out in one
//     Write, its head filled in after the body. A frame over the cap is
//     never sent: a reply too large is answered with a typed
//     ErrProtocol instead, and a request too large fails its own call
//     with one, the connection still in step. Each connection also
//     reads into one reused buffer; a decoded frame's strings are
//     substrings of one copy of its body, so a decoded frame never
//     aliases that buffer.
//   - Every exchange is a call: its request and its reply carry the
//     same ReqID, so a Client runs all of them — the hello, searches,
//     snapshots, lease reports — over one connection at once.
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
	"errors"
	"fmt"
	"math"
	"time"

	"semtree"
	"semtree/internal/column"
	"semtree/internal/triple"
)

// protoVersion is the serve protocol version, sent in both directions
// of the hello exchange. A server refuses a hello whose version it does
// not speak with ErrVersion rather than guessing at frame layouts. A
// version-1 peer framed its messages differently: its hello reads as a
// frame of another type, and the server closes the connection.
const protoVersion uint32 = 2

// maxFrameSize caps one frame's body, in both directions. A length
// beyond the cap is a protocol error before any of the body is read, so
// a hostile length cannot balloon memory.
const maxFrameSize = 1 << 20

// Frame types, each a frame's kind byte. Append new types; never
// renumber.
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
// tenant auth token. Like every request it carries a ReqID, which its
// answer echoes.
type helloFrame struct {
	ReqID   uint64
	Version uint32
	Token   string
}

// helloAckFrame answers the hello. Code 0 means the connection is
// accepted; otherwise Code/Msg/Detail carry the typed rejection
// (ErrVersion, ErrAuth, ErrDraining) and the server closes the
// connection after writing the ack.
type helloAckFrame struct {
	ReqID   uint64
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
	ReqID     uint64
	Tenant    string
	FrontEnd  string
	DemandQPS float64
}

// leaseGrantFrame is the allocator's answer: this front-end's leased
// share of the tenant's fleet-wide bucket, valid for TTLNanos. The
// shares granted to all live front-ends of a tenant sum to the tenant's
// configured fleet-wide capacity and refill rate.
type leaseGrantFrame struct {
	ReqID        uint64
	Tenant       string
	Capacity     float64
	RefillPerSec float64
	TTLNanos     int64
}

// --- encoding ---
//
// Bodies have a fixed layout: integers big-endian, strings a uint32
// length and their bytes, and every body of a call or its reply opens
// with the call's ReqID. Each appendX appends one body to a buffer its
// connection reuses (mux.Writer). Each decodeX reads a body from one
// string copy of it through an rbuf that latches the first error, so a
// malformed body yields exactly one typed ErrProtocol and never panics
// or over-reads; a decoded frame's strings are substrings of that copy,
// so nothing decoded aliases the buffer its bytes were read into.

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

// protocolErr types a frame refused by column.Frame — over the cap, or
// cut short — as ErrProtocol. Any other error, a connection's end,
// passes as it is.
func protocolErr(err error) error {
	if errors.Is(err, column.ErrFrame) {
		return fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return err
}

// rbuf is a latching body reader: the first short read sets err and
// every later read returns zero values, so decoders are written
// straight-line and checked once at the end.
type rbuf struct {
	s   string
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrProtocol, r.off)
	}
}

// be reads an n-byte big-endian unsigned integer.
func (r *rbuf) be(n int) uint64 {
	if r.err != nil || r.off+n > len(r.s) {
		r.fail()
		return 0
	}
	var v uint64
	for _, c := range []byte(r.s[r.off : r.off+n]) {
		v = v<<8 | uint64(c)
	}
	r.off += n
	return v
}

func (r *rbuf) u8() uint8    { return uint8(r.be(1)) }
func (r *rbuf) u32() uint32  { return uint32(r.be(4)) }
func (r *rbuf) u64() uint64  { return r.be(8) }
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
	if r.err != nil || n < 0 || r.off+n > len(r.s) {
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

// done finishes a body decode: the latched error if any, else a
// protocol error when the body carried trailing bytes (a body is
// exactly its layout, nothing more).
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.s) {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(r.s)-r.off)
	}
	return nil
}

// --- per-frame encode/decode ---

func appendHello(b []byte, f helloFrame) []byte {
	b = appendU64(b, f.ReqID)
	b = appendU32(b, f.Version)
	return appendStr(b, f.Token)
}

func decodeHello(body string) (f helloFrame, err error) {
	r := rbuf{s: body}
	f.ReqID = r.u64()
	f.Version = r.u32()
	f.Token = r.str()
	return f, r.done()
}

func appendHelloAck(b []byte, f helloAckFrame) []byte {
	b = appendU64(b, f.ReqID)
	b = appendU32(b, f.Version)
	b = appendU32(b, uint32(f.Code))
	return appendStr(b, f.Msg)
}

func decodeHelloAck(body string) (f helloAckFrame, err error) {
	r := rbuf{s: body}
	f.ReqID = r.u64()
	f.Version = r.u32()
	f.Code = semtree.ErrorCode(r.u32())
	f.Msg = r.str()
	return f, r.done()
}

func appendSearch(b []byte, f searchFrame) []byte {
	b = appendU64(b, f.ReqID)
	b = appendI64(b, f.Deadline)
	b = appendU8(b, f.Mode)
	b = appendI64(b, f.K)
	b = appendI64(b, f.ExactFactor)
	b = appendF64(b, f.Radius)
	return appendTriple(b, f.Query)
}

func decodeSearch(body string) (f searchFrame, err error) {
	r := rbuf{s: body}
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
	return b
}

func decodeResult(body string) (f resultFrame, err error) {
	r := rbuf{s: body}
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
	if r.err == nil && n > (len(r.s)-r.off)/minMatchSize {
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
	return appendU64(b, f.ReqID)
}

func decodeSnapshot(body string) (f snapshotFrame, err error) {
	r := rbuf{s: body}
	f.ReqID = r.u64()
	return f, r.done()
}

func appendSnapshotAck(b []byte, f snapshotAckFrame) []byte {
	b = appendU64(b, f.ReqID)
	b = appendBool(b, f.HasErr)
	b = appendU32(b, uint32(f.Code))
	b = appendStr(b, f.Msg)
	b = appendU64(b, f.Detail)
	return appendU64(b, f.Bytes)
}

func decodeSnapshotAck(body string) (f snapshotAckFrame, err error) {
	r := rbuf{s: body}
	f.ReqID = r.u64()
	f.HasErr = r.boolean()
	f.Code = semtree.ErrorCode(r.u32())
	f.Msg = r.str()
	f.Detail = r.u64()
	f.Bytes = r.u64()
	return f, r.done()
}

func appendLeaseReport(b []byte, f leaseReportFrame) []byte {
	b = appendU64(b, f.ReqID)
	b = appendStr(b, f.Tenant)
	b = appendStr(b, f.FrontEnd)
	return appendF64(b, f.DemandQPS)
}

func decodeLeaseReport(body string) (f leaseReportFrame, err error) {
	r := rbuf{s: body}
	f.ReqID = r.u64()
	f.Tenant = r.str()
	f.FrontEnd = r.str()
	f.DemandQPS = r.f64()
	return f, r.done()
}

func appendLeaseGrant(b []byte, f leaseGrantFrame) []byte {
	b = appendU64(b, f.ReqID)
	b = appendStr(b, f.Tenant)
	b = appendF64(b, f.Capacity)
	b = appendF64(b, f.RefillPerSec)
	return appendI64(b, f.TTLNanos)
}

func decodeLeaseGrant(body string) (f leaseGrantFrame, err error) {
	r := rbuf{s: body}
	f.ReqID = r.u64()
	f.Tenant = r.str()
	f.Capacity = r.f64()
	f.RefillPerSec = r.f64()
	f.TTLNanos = r.i64()
	return f, r.done()
}

// encodeError projects err onto the wire triplet via the facade
// registry.
func encodeError(err error) (code semtree.ErrorCode, msg string, detail uint64) {
	return semtree.CodeOf(err), err.Error(), semtree.ErrorDetail(err)
}
