package kdtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The paper's pruning bound (§III-B.3) is the one-dimensional distance
// from the query to a node's splitting plane, and its k-nearest walk is
// depth first. The kernel prunes with the exact box guard and visits
// regions nearest first instead; planeKNN, dfsKNN and planeRange keep
// the paper's bound and order as the references the kernel is measured
// against, walking one arena with no outside references.

// lifoKNN is the k-nearest traversal in the paper's depth-first order:
// navigate to the query's leaf, then back up, visiting the far child of
// each node while Rs is not full or the worst kept distance still
// reaches farSq(far, planeSq) — a LIFO stack with the near child pushed
// unguarded on top of its guarded sibling.
func lifoKNN(a *Arena, q []float64, k int, farSq func(far Ref, planeSq float64) float64) ([]Neighbor, Stats) {
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
		stack = append(stack, visit{ref: far, guardSq: farSq(far, plane*plane)}, visit{ref: near, guardSq: -1})
	}
	return rs.drain(), st
}

// planeKNN is the depth-first walk with the plane bound as its only
// guard.
func planeKNN(a *Arena, q []float64, k int) ([]Neighbor, Stats) {
	return lifoKNN(a, q, k, func(_ Ref, planeSq float64) float64 { return planeSq })
}

// dfsKNN is the depth-first walk under the kernel's own exact box
// guard: the paper's order, against which the kernel's nearest-first
// order is measured.
func dfsKNN(a *Arena, q []float64, k int) ([]Neighbor, Stats) {
	return lifoKNN(a, q, k, func(far Ref, planeSq float64) float64 {
		return a.guardSq(q, far.Node, planeSq, math.Inf(1))
	})
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
	slices.SortFunc(out, NeighborCmp)
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

// TestBestFirstAgainstDepthFirst: on bulk-built and insert-grown arenas
// at dimensionality 2 and 8, with exact duplicate points so that equal
// distances tie, the kernel's nearest-first k-nearest traversal returns
// what the depth-first walk under the same guards returns, bit for bit
// (the (Dist, ID) winner of every tie included), and scans no more
// points on any query. At 8 it scans strictly fewer in total.
func TestBestFirstAgainstDepthFirst(t *testing.T) {
	for _, dim := range []int{2, 8} {
		r := rand.New(rand.NewSource(int64(40 + dim)))
		pts := randomPoints(r, 3000, dim)
		for i := 0; i < 600; i++ { // exact duplicates under new IDs
			c := pts[r.Intn(3000)].Coords
			pts = append(pts, Point{Coords: append([]float64(nil), c...), ID: uint64(len(pts))})
		}
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
			var best, dfs, ties int
			for trial := 0; trial < 200; trial++ {
				q := randomPoints(r, 1, dim)[0].Coords
				if trial%2 == 1 { // on a data point: its duplicates tie at 0
					q = pts[r.Intn(len(pts))].Coords
				}
				k := 1 + trial%12
				var st Stats
				got := tr.KNearestWithStats(q, k, &st)
				want, dst := dfsKNN(&tr.Arena, q, k)
				if !sameBits(got, want) {
					t.Fatalf("dim %d %s trial %d: k=%d best-first %v, depth-first %v", dim, name, trial, k, got, want)
				}
				if st.PointsScanned > dst.PointsScanned {
					t.Fatalf("dim %d %s trial %d: best-first scanned %d points, depth-first %d", dim, name, trial, st.PointsScanned, dst.PointsScanned)
				}
				for i := 1; i < len(got); i++ {
					if got[i].Dist == got[i-1].Dist {
						ties++
					}
				}
				best += st.PointsScanned
				dfs += dst.PointsScanned
			}
			t.Logf("dim %d %s: points scanned, best-first %d vs depth-first %d; %d ties", dim, name, best, dfs, ties)
			if ties == 0 {
				t.Fatalf("dim %d %s: no query ranked two points at one distance", dim, name)
			}
			if dim == 8 && best >= dfs {
				t.Fatalf("dim %d %s: best-first scanned %d points, not below depth-first's %d", dim, name, best, dfs)
			}
		}
	}
}
