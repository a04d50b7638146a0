// Package errcode is the one table of wire error codes. An error crossing
// a process boundary (the TCP fabric, the serve wire) travels as (code,
// detail, message) and decodes to one matching the same registered
// sentinel under errors.Is, or typed error under errors.As. Packages
// register their entries at init; the facade re-exports the table.
package errcode

import (
	"errors"
	"fmt"
)

// Code is a stable numeric identifier for one registered error.
type Code uint32

// Every assigned code: 0 none, 1–63 the facade's and the engine's (32–47
// the engine's), 64 and up the serving tier's. Append; never renumber.
const (
	Unknown           Code = 0
	AdmissionRejected Code = 1
	DeadlineBudget    Code = 2
	QuotaExhausted    Code = 3
	SnapshotCorrupt   Code = 4
	UnindexedID       Code = 5 // typed: the detail is the triple ID
	Canceled          Code = 6 // context.Canceled
	DeadlineExceeded  Code = 7 // context.DeadlineExceeded
	Transient         Code = 32
	Closed            Code = 33
	UnknownNode       Code = 34
	RequestRefused    Code = 35
	Protocol          Code = 64
	Auth              Code = 65
	Draining          Code = 66
	Version           Code = 67
	NotAdmin          Code = 68
)

// entry is one registration: match finds its sentinel or type in an
// error, with the detail; build returns the sentinel, or a detail's T.
type entry struct {
	code  Code
	match func(err error) (detail uint64, ok bool)
	build func(detail uint64) error
}

// The table. Only init functions write it, so no read races a write.
var (
	entries []entry // in match order: registration order
	byCode  = map[Code]int{}
)

func add(e entry) {
	if _, dup := byCode[e.code]; dup || e.code == Unknown {
		panic(fmt.Sprintf("errcode: code %d reserved or registered twice", e.code))
	}
	byCode[e.code] = len(entries)
	entries = append(entries, e)
}

// Register assigns code c to a sentinel error. It panics on code 0, a
// reused code, a nil sentinel or one an entry matches already. Of
// matches entries in registration order, so of two sentinels one error
// wraps, the earlier names it.
func Register(c Code, sentinel error) {
	if code, _ := Of(sentinel); sentinel == nil || code != Unknown {
		panic(fmt.Sprintf("errcode: sentinel %v nil or registered twice", sentinel))
	}
	add(entry{
		code:  c,
		match: func(err error) (uint64, bool) { return 0, errors.Is(err, sentinel) },
		build: func(uint64) error { return sentinel },
	})
}

// RegisterType assigns code c to every error errors.As finds a T in:
// the wire carries detail(t), and the receiver's error wraps
// build(detail). It panics on code 0 or a reused code.
func RegisterType[T error](c Code, detail func(T) uint64, build func(uint64) T) {
	add(entry{
		code: c,
		match: func(err error) (uint64, bool) {
			var t T
			if errors.As(err, &t) {
				return detail(t), true
			}
			return 0, false
		},
		build: func(d uint64) error { return build(d) },
	})
}

// Of returns the wire code and detail of err: the first registered
// entry's it matches, else a decoded error's own (an error relayed from
// another wire keeps its code, registered here or not), else Unknown.
func Of(err error) (Code, uint64) {
	for _, e := range entries {
		if d, ok := e.match(err); ok {
			return e.code, d
		}
	}
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code, ce.detail
	}
	return Unknown, 0
}

// Decode rebuilds an error from its wire form: what the code's entry
// builds, itself when msg is its text, else wrapped under msg; for a
// code with no entry, msg wrapping nothing, keeping code and detail.
func Decode(c Code, msg string, detail uint64) error {
	var err error
	if i, ok := byCode[c]; ok {
		err = entries[i].build(detail)
	}
	//semtree:allow typederr: not classification — byte-identity check of the wire text against the error's own message, to return it unwrapped
	if err != nil && msg == err.Error() {
		return err
	}
	return &codedError{code: c, detail: detail, msg: msg, err: err}
}

// codedError is a decoded wire error: the remote text over the local error.
type codedError struct {
	code   Code
	detail uint64
	msg    string
	err    error
}

func (e *codedError) Error() string { return e.msg }
func (e *codedError) Unwrap() error { return e.err }
