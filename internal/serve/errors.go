package serve

import (
	"errors"

	"semtree"
)

// The serving tier's own sentinels. Like the facade's, each carries a
// wire-stable code — registered in the 64+ range the facade reserves
// for this package — so both sides of the wire agree on errors.Is
// semantics for protocol-level failures too. TestServeErrorCodesComplete
// mirrors the facade's registry-completeness test over this package.
var (
	// ErrProtocol marks a malformed frame — bad length, unknown frame
	// type, truncated body, or trailing bytes — and one over
	// maxFrameSize. A frame read that way closes its connection:
	// framing cannot be resynchronized. A frame too large to send is
	// never written, so the connection serves on: a request too large
	// fails its own call, and a reply too large is answered with this
	// error instead. It is not retryable: the same frame would fail
	// again.
	ErrProtocol = errors.New("serve: malformed frame")
	// ErrAuth marks a hello whose token maps to no configured tenant.
	ErrAuth = errors.New("serve: authentication failed")
	// ErrDraining marks a request refused because the server is
	// draining: it stopped accepting work but is finishing what it
	// admitted. Retryable by contract — another front-end (or the
	// restarted server) will take the request.
	ErrDraining = errors.New("serve: server draining")
	// ErrVersion marks a hello with a protocol version the server does
	// not speak.
	ErrVersion = errors.New("serve: protocol version mismatch")
	// ErrNotAdmin marks an admin frame (snapshot trigger) from a tenant
	// without admin rights.
	ErrNotAdmin = errors.New("serve: admin access denied")
)

// Wire codes of the serve sentinels (64+ is the serving-tier range; see
// semtree.ErrorCode). Append; never renumber.
const (
	codeProtocol semtree.ErrorCode = 64
	codeAuth     semtree.ErrorCode = 65
	codeDraining semtree.ErrorCode = 66
	codeVersion  semtree.ErrorCode = 67
	codeNotAdmin semtree.ErrorCode = 68
)

func init() {
	semtree.RegisterErrorCode(codeProtocol, ErrProtocol)
	semtree.RegisterErrorCode(codeAuth, ErrAuth)
	semtree.RegisterErrorCode(codeDraining, ErrDraining)
	semtree.RegisterErrorCode(codeVersion, ErrVersion)
	semtree.RegisterErrorCode(codeNotAdmin, ErrNotAdmin)
}

// Retryable reports whether err is a typed retryable serve failure: the
// request provably did not execute and another attempt (typically
// against another front-end) is safe and useful. Only ErrDraining
// qualifies today; quota and admission rejections are deliberate
// back-pressure and retrying them defeats the throttle.
func Retryable(err error) bool {
	return errors.Is(err, ErrDraining)
}
