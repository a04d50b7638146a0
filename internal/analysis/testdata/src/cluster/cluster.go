// Package cluster is a miniature stand-in for semtree/internal/cluster,
// just enough surface for the lockedcall fixtures: the analyzer matches
// fabric types by package-path suffix, so this fixture package
// exercises the same detection paths as the real one.
package cluster

import "context"

type NodeID int

type Fabric interface {
	Call(ctx context.Context, from, to NodeID, req any) (any, error)
}

func CallRetry(ctx context.Context, f Fabric, from, to NodeID, req any, attempts int) (any, error) {
	var resp any
	var err error
	for i := 0; i < attempts; i++ {
		resp, err = f.Call(ctx, from, to, req)
		if err == nil {
			return resp, nil
		}
	}
	return nil, err
}
