package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"semtree"
	"semtree/internal/cluster"
	"semtree/internal/column"
	"semtree/internal/errcode"
)

// detailErr is a typed error with a detail, registered at a code no
// package assigns, so the registry this binary sees holds an entry of
// each kind.
type detailErr struct{ N uint64 }

func (e detailErr) Error() string { return fmt.Sprintf("detail %d", e.N) }

const codeDetail errcode.Code = 47

func init() {
	errcode.RegisterType(codeDetail,
		func(e detailErr) uint64 { return e.N },
		func(n uint64) detailErr { return detailErr{N: n} })
}

// TestFabricSentinels: every entry of the error-code registry — the
// fabric's sentinels and the context errors, the engine's refusal and
// the facade's sentinels, the facade's typed ErrUnindexedID and a typed
// entry of this test's — keeps its identity on every fabric. A handler
// error wrapping it reads the same to a caller over TCP as in process,
// matches the same sentinels under errors.Is, and gives errors.As the
// same typed value, detail intact. A context error carries the same code
// in a fabric reply as the serving tier's wire gives it.
func TestFabricSentinels(t *testing.T) {
	// The registered codes: those an empty message decodes to an error
	// wrapping what their entry builds — the sentinel, or the typed
	// error of detail 7. Each handler error wraps that, with text of the
	// handler's own.
	var codes []errcode.Code
	var entries, sent []error
	for c := range errcode.Code(1 << 8) {
		if e := errors.Unwrap(errcode.Decode(c, "", 7)); e != nil {
			codes, entries = append(codes, c), append(entries, e)
			sent = append(sent, fmt.Errorf("partition 3: %w", e))
		}
	}
	for _, c := range []errcode.Code{errcode.Transient, errcode.Canceled, errcode.RequestRefused, errcode.UnindexedID, codeDetail} {
		if !slices.Contains(codes, c) {
			t.Fatalf("code %d is not registered in this binary: %v", c, codes)
		}
	}
	same := func(got error, i int) error {
		want := sent[i]
		//semtree:allow typederr: not classification — the handler's own text must cross the wire beside its identity
		if got == nil || got.Error() != want.Error() {
			return fmt.Errorf("reads %v, want %q", got, want)
		}
		for _, s := range entries {
			if errors.Is(got, s) != errors.Is(want, s) {
				return fmt.Errorf("%v: errors.Is %q is %v", got, s, !errors.Is(want, s))
			}
		}
		var gd, wd detailErr
		var gu, wu semtree.ErrUnindexedID
		if errors.As(got, &gd) != errors.As(want, &wd) || gd != wd || errors.As(got, &gu) != errors.As(want, &wu) || gu != wu {
			return fmt.Errorf("%v: errors.As gives %v and %v, want %v and %v", got, gd, gu, wd, wu)
		}
		gc, gdet := errcode.Of(got)
		if wc, wdet := errcode.Of(want); gc != wc || gdet != wdet || wc != codes[i] {
			return fmt.Errorf("%v: code %d and detail %d, want %d and %d", got, gc, gdet, wc, wdet)
		}
		return nil
	}
	for name, mk := range cluster.Fabrics() {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()
			id, _ := f.AddNode(func(ctx context.Context, from cluster.NodeID, req any) (any, error) {
				if i := len(req.(cluster.EchoReq).Msg); i < len(sent) {
					return nil, sent[i]
				}
				return cluster.EchoHandler(ctx, from, req)
			})
			for i := range sent {
				_, err := f.Call(context.Background(), cluster.ClientID, id, cluster.EchoReq{Msg: strings.Repeat("x", i)})
				if err := same(err, i); err != nil {
					t.Errorf("code %d: %v", codes[i], err)
				}
			}
			if _, err := f.Call(context.Background(), cluster.ClientID, id, cluster.EchoReq{Msg: "past every entry"}); err != nil {
				t.Fatalf("the node no longer answers: %v", err)
			}
		})
	}

	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		frame, err := cluster.EncodeFrame(0, 0, nil, ctxErr)
		if err != nil {
			t.Fatal(err)
		}
		var d column.Decoder // kind, length; from, deadline, failed; code
		d.Reset(frame)
		d.Byte()
		d.Uvarint()
		d.Varint()
		d.Varint()
		d.Byte()
		if code := errcode.Code(d.Uint32()); d.Err() != nil || code != semtree.CodeOf(ctxErr) {
			t.Errorf("%v: code %d in a fabric reply, %d on the serve wire (%v)", ctxErr, code, semtree.CodeOf(ctxErr), d.Err())
		}
	}
}
