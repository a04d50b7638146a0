package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"semtree/internal/cluster"
	"semtree/internal/core"
	"semtree/internal/kdtree"
)

// recorder keeps, per wire kind, the smallest frame of every message a
// fabric carries.
type recorder struct {
	cluster.Fabric
	mu     sync.Mutex
	frames map[byte][]byte
}

func (r *recorder) Call(ctx context.Context, from, to cluster.NodeID, req any) (any, error) {
	resp, err := r.Fabric.Call(ctx, from, to, req)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range []any{req, resp} {
		m, ok := v.(cluster.Message)
		if !ok {
			continue
		}
		frame, ferr := cluster.EncodeFrame(from, 0, v)
		if old, seen := r.frames[m.WireKind()]; ferr == nil && (!seen || len(frame) < len(old)) {
			r.frames[m.WireKind()] = frame
		}
	}
	return resp, err
}

// protocolFrames returns a frame of every kind the partition protocol
// sends, recorded from a small three-partition tree: bulk loads into an
// empty and a live tree, spilling inserts, both queries, stats, a
// snapshot, its restore and a rebalance.
func protocolFrames(tb testing.TB) map[byte][]byte {
	rec := &recorder{Fabric: cluster.NewInProc(cluster.InProcOptions{}), frames: make(map[byte][]byte)}
	defer rec.Close()
	cfg := core.Config{Dim: 2, BucketSize: 4, PartitionCapacity: 16, MaxPartitions: 3, Fabric: rec}
	tr, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer tr.Close()
	pts := make([]kdtree.Point, 90)
	for i := range pts {
		pts[i] = kdtree.Point{Coords: []float64{float64(i % 9), float64(i / 9)}, ID: uint64(i)}
	}
	ctx := context.Background()
	steps := []func() error{
		func() error { return tr.BulkLoad(ctx, pts[:30]) },
		func() error { return tr.InsertAll(pts[30:60], 1) },
		func() error { return tr.BulkLoad(ctx, pts[60:]) },
		func() error { _, err := tr.KNearest(ctx, []float64{4, 4}, 3); return err },
		func() error { _, err := tr.RangeSearch(ctx, []float64{4, 4}, 2); return err },
		func() error { _, err := tr.Stats(); return err },
		func() error {
			snap, err := tr.Snapshot()
			if err == nil {
				var restored *core.Tree
				if restored, err = core.RestoreTree(cfg, snap); err == nil {
					restored.Close()
				}
			}
			return err
		},
		tr.Rebalance,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			tb.Fatalf("step %d: %v", i, err)
		}
	}
	return rec.frames
}

// FuzzFabricFrame feeds hostile bytes to a connection end's frame
// reader and to every registered decoder. Nothing may panic: every
// rejection is an error. A length or count is believed only as far as
// the bytes left back it, so no input allocates more than a small
// multiple of its own size. A frame that is accepted re-encodes to a
// fixed point: encoding what it decoded, then decoding and encoding
// that again, gives the same bytes.
func FuzzFabricFrame(f *testing.F) {
	frames := protocolFrames(f)
	if len(frames) < len(cluster.Kinds()) {
		f.Fatalf("the recorded traffic covers %d kinds, want the partition protocol's %d", len(frames), len(cluster.Kinds()))
	}
	for kind, frame := range frames {
		if _, _, payload, _, err := cluster.ReadFrame(frame); err != nil || payload.(cluster.Message).WireKind() != kind {
			f.Fatalf("a recorded frame of kind %d reads back as %T (%v)", kind, payload, err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated
	}
	registered := append(cluster.Kinds(), cluster.TestKinds...)
	for _, k := range registered {
		// The decoder's first count claims far more than the bytes left.
		body := binary.AppendUvarint([]byte{0, 0, 0}, 1<<50)
		f.Add(append(binary.AppendUvarint([]byte{k}, uint64(len(body)+200)), append(body, make([]byte, 200)...)...))
	}
	huge := binary.AppendUvarint([]byte{cluster.Kinds()[0]}, 1<<30) // 1 GiB claimed, 200 bytes sent
	f.Add(append(huge, bytes.Repeat([]byte{7}, 200)...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		from, deadline, payload, _, err := cluster.ReadFrame(data)
		for _, k := range registered {
			_, _ = cluster.DecodeKind(k, data)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(64*len(data))+1<<20 {
			t.Fatalf("%d input bytes allocated %d", len(data), grown)
		}
		if _, ok := payload.(cluster.Message); err != nil || !ok {
			return
		}
		once, err := cluster.EncodeFrame(from, deadline, payload)
		if err != nil {
			t.Fatalf("re-encoding %T: %v", payload, err)
		}
		from, deadline, payload, _, err = cluster.ReadFrame(once)
		if err != nil {
			t.Fatalf("reading a re-encoded %T: %v", payload, err)
		}
		twice, err := cluster.EncodeFrame(from, deadline, payload)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("%T re-encodes to %x, then %x (%v)", payload, once, twice, err)
		}
	})
}
