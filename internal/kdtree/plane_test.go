package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The paper's pruning bound (§III-B.3) is the one-dimensional distance
// from the query to a node's splitting plane. The traversals prune with
// the exact box guard instead; planeKNN and planeRange keep the paper's
// bound as the reference the guard is measured against, walking one
// arena with no outside references.

// planeKNN is the k-nearest traversal with the plane bound as its only
// backtracking guard: the far child is visited while Rs is not full or
// the worst kept distance still reaches the splitting plane.
func planeKNN(a *Arena, q []float64, k int) ([]Neighbor, Stats) {
	rs := ResultSet{K: k}
	var st Stats
	stack := []visit{{ref: a.Ref(0), guardSq: -1}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.guardSq >= 0 && rs.Full() && rs.Worst() < v.guardSq {
			continue
		}
		st.NodesVisited++
		n := &a.Nodes[v.ref.Node]
		if n.Leaf {
			st.LeavesVisited++
			st.PointsScanned += len(n.Slots)
			for _, s := range n.Slots {
				rs.Offer(Neighbor{Point: a.Point(s), Dist: EuclideanSq(q, a.coords(s))})
			}
			continue
		}
		near, far := n.Left, n.Right
		if q[n.SplitDim] > n.SplitVal {
			near, far = far, near
		}
		plane := q[n.SplitDim] - n.SplitVal
		stack = append(stack, visit{ref: far, guardSq: plane * plane}, visit{ref: near, guardSq: -1})
	}
	return rs.drain(), st
}

// planeRange is the range traversal with the plane bound alone: the
// child on the query's side always, the other one at a border node.
func planeRange(a *Arena, q []float64, d float64) ([]Neighbor, Stats) {
	var (
		st  Stats
		out []Neighbor
	)
	var walk func(idx int32)
	walk = func(idx int32) {
		st.NodesVisited++
		n := &a.Nodes[idx]
		if n.Leaf {
			st.LeavesVisited++
			st.PointsScanned += len(n.Slots)
			for _, s := range n.Slots {
				if sq := EuclideanSq(q, a.coords(s)); sq <= d*d {
					out = append(out, Neighbor{Point: a.Point(s), Dist: sq})
				}
			}
			return
		}
		border := math.Abs(q[n.SplitDim]-n.SplitVal) <= d
		for i, c := range [2]Ref{n.Left, n.Right} {
			if home := (q[n.SplitDim] <= n.SplitVal) == (i == 0); home || border {
				walk(c.Node)
			}
		}
	}
	walk(0)
	slices.SortFunc(out, neighborCmp)
	for i := range out {
		out[i].Dist = math.Sqrt(out[i].Dist)
	}
	return out, st
}

// sameBits requires identical IDs and distance bits, rank by rank.
func sameBits(got, want []Neighbor) bool {
	return slices.EqualFunc(got, want, func(a, b Neighbor) bool {
		return a.Point.ID == b.Point.ID && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
	})
}

// TestRegionGuardAgainstPlaneReference: on bulk-built and insert-grown
// arenas at dimensionality 2 and 8, the box-guarded k-nearest and range
// traversals return what the plane-bound walks return, bit for bit, and
// visit no more nodes on any query. At 8, where the plane bound has
// degraded, they visit strictly fewer in total.
func TestRegionGuardAgainstPlaneReference(t *testing.T) {
	for _, dim := range []int{2, 8} {
		r := rand.New(rand.NewSource(int64(dim)))
		pts := randomPoints(r, 3000, dim)
		bulk, err := BulkLoad(append([]Point(nil), pts...), dim, 16)
		if err != nil {
			t.Fatal(err)
		}
		grown, _ := New(dim, 16)
		for _, p := range pts {
			if err := grown.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, arena := range []struct {
			name string
			tr   *Tree
		}{{"bulk", bulk}, {"insert", grown}} {
			name, tr := arena.name, arena.tr
			var regionKNN, planeKNNs, regionRange, planeRanges, matches int
			for trial := 0; trial < 100; trial++ {
				q := randomPoints(r, 1, dim)[0].Coords
				k := 1 + trial%10
				var st Stats
				got := tr.KNearestWithStats(q, k, &st)
				want, pst := planeKNN(&tr.Arena, q, k)
				if !sameBits(got, want) {
					t.Fatalf("dim %d %s trial %d: k=%d region %v, plane %v", dim, name, trial, k, got, want)
				}
				if st.NodesVisited > pst.NodesVisited {
					t.Fatalf("dim %d %s trial %d: k-NN region visited %d nodes, plane %d", dim, name, trial, st.NodesVisited, pst.NodesVisited)
				}
				regionKNN += st.NodesVisited
				planeKNNs += pst.NodesVisited

				d := 5 + r.Float64()*float64(5*dim)
				st = Stats{}
				got = tr.RangeSearchWithStats(q, d, &st)
				want, pst = planeRange(&tr.Arena, q, d)
				if !sameBits(got, want) {
					t.Fatalf("dim %d %s trial %d: range %g: region %d matches, plane %d", dim, name, trial, d, len(got), len(want))
				}
				if st.NodesVisited > pst.NodesVisited {
					t.Fatalf("dim %d %s trial %d: range region visited %d nodes, plane %d", dim, name, trial, st.NodesVisited, pst.NodesVisited)
				}
				matches += len(got)
				regionRange += st.NodesVisited
				planeRanges += pst.NodesVisited
			}
			t.Logf("dim %d %s: nodes visited, k-NN %d region vs %d plane, range %d vs %d (%d matches)",
				dim, name, regionKNN, planeKNNs, regionRange, planeRanges, matches)
			if matches == 0 {
				t.Fatalf("dim %d %s: no range query matched anything", dim, name)
			}
			if dim == 8 && (regionKNN >= planeKNNs || regionRange >= planeRanges) {
				t.Fatalf("dim %d %s: the region guard did not cut nodes visited (k-NN %d vs %d, range %d vs %d)",
					dim, name, regionKNN, planeKNNs, regionRange, planeRanges)
			}
		}
	}
}
