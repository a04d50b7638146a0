package semtree

import (
	"semtree/internal/errcode"
	"semtree/internal/triple"
)

// ErrorCode is a stable numeric identifier for one sentinel error, from
// the one table both wires use (internal/errcode): an error crosses as
// (code, detail, message) and decodes to the same sentinel under
// errors.Is. 0 is none, 1–63 this package's and the engine's, 64 and up
// the serving tier's. A code never changes meaning; the
// registry-completeness test fails on an exported Err* without one.
type ErrorCode = errcode.Code

// The facade's assigned codes. Append new codes; never renumber.
const (
	CodeUnknown           = errcode.Unknown           // no registered sentinel: only the message crosses
	CodeAdmissionRejected = errcode.AdmissionRejected // ErrAdmissionRejected
	CodeDeadlineBudget    = errcode.DeadlineBudget    // ErrDeadlineBudget
	CodeQuotaExhausted    = errcode.QuotaExhausted    // ErrQuotaExhausted
	CodeSnapshotCorrupt   = errcode.SnapshotCorrupt   // ErrSnapshotCorrupt
	CodeUnindexedID       = errcode.UnindexedID       // ErrUnindexedID; its detail is the triple ID
	CodeCanceled          = errcode.Canceled          // context.Canceled
	CodeDeadlineExceeded  = errcode.DeadlineExceeded  // context.DeadlineExceeded
	CodeRequestRefused    = errcode.RequestRefused    // ErrRequestRefused
)

func init() {
	errcode.RegisterType(CodeUnindexedID,
		func(e ErrUnindexedID) uint64 { return uint64(e.ID) },
		func(id uint64) ErrUnindexedID { return ErrUnindexedID{ID: triple.ID(id)} })
}

// RegisterErrorCode assigns a wire code to a sentinel error, from an
// init function (internal/serve's, in the 64+ range). It panics on a
// reused code, a re-registered sentinel, code 0 or a nil sentinel.
func RegisterErrorCode(c ErrorCode, sentinel error) { errcode.Register(c, sentinel) }

// CodeOf returns the wire code of err: that of the first registered
// entry it matches, in registration order, else CodeUnknown.
func CodeOf(err error) ErrorCode {
	c, _ := errcode.Of(err)
	return c
}

// ErrorDetail returns the numeric payload a coded error carries across
// the wire: the offending triple ID for ErrUnindexedID, else 0.
func ErrorDetail(err error) uint64 {
	_, d := errcode.Of(err)
	return d
}

// DecodeError reconstructs an error from its wire form: one that
// matches the registered sentinel under errors.Is, or ErrUnindexedID
// (ID intact) under errors.As, or for CodeUnknown only reads as msg.
func DecodeError(c ErrorCode, msg string, detail uint64) error {
	return errcode.Decode(c, msg, detail)
}
