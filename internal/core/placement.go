package core

import (
	"sort"

	"semtree/internal/cluster"
	"semtree/internal/kdtree"
)

// Geometry-aware partition placement: the build-partition algorithm
// (§III-B.2) and the rebalance trunk install decide *where* a subtree
// lives, and PR 5's exact per-subtree bounding boxes make that decision
// informable. Instead of scattering leaves round-robin, the placement
// kernel scores every candidate partition by how little its union box
// must grow to absorb the subtree (the R-tree least-enlargement
// heuristic), nudged by current load — so spatially close subtrees land
// together and a broad query's fan-out stays bounded by the geometry of
// its region instead of by the partition count. Boxes and counts are
// all the kernel reads: a layout is a function of the data, never of
// what the fabric's clock measured (TestLayoutIsFunctionOfData).
// Round-robin scatter is a test reference (roundRobin in
// placement_test.go) that TestPlacementIdenticalResults and
// BenchmarkKNNPlacement measure the kernel against through Tree.place.

// placeLoadWeight weighs a candidate's normalized load against the
// geometric term: geometry dominates (it is what bounds query fan-out),
// load breaks up pathological pile-ups on one partition.
const placeLoadWeight = 0.25

// placeBox is one subtree to place: its exact bounding box and point
// count. A nil box (empty subtree) fits anywhere for free.
type placeBox struct {
	lo, hi []float64
	points int
}

// placeTarget is one candidate partition as the kernel sees it: the
// union box of the data it already hosts (nil when empty) and its
// current load.
type placeTarget struct {
	lo, hi []float64
	points int
}

// boxEnlargement is the growth in total margin (summed side lengths)
// of the target union box when it absorbs the subtree box. An empty
// target absorbs any box for free — which is what makes the greedy
// kernel spread first and cluster after: subtrees fill empty
// partitions before competing for the geometrically closest one.
func boxEnlargement(tlo, thi, slo, shi []float64) float64 {
	if tlo == nil || slo == nil {
		return 0
	}
	e := 0.0
	for d := range tlo {
		lo, hi := tlo[d], thi[d]
		if slo[d] < lo {
			lo = slo[d]
		}
		if shi[d] > hi {
			hi = shi[d]
		}
		e += (hi - lo) - (thi[d] - tlo[d])
	}
	return e
}

// placeScores prices one subtree against every candidate target:
// normalized box enlargement plus the weighted load fraction, lower is
// better. Each component is normalized over the candidate set (the max
// observed value), so the score is scale-free in the coordinate space.
func placeScores(sub placeBox, targets []placeTarget) []float64 {
	enl := make([]float64, len(targets))
	maxEnl := 0.0
	maxLoad := 0
	for i, tg := range targets {
		enl[i] = boxEnlargement(tg.lo, tg.hi, sub.lo, sub.hi)
		if enl[i] > maxEnl {
			maxEnl = enl[i]
		}
		if tg.points > maxLoad {
			maxLoad = tg.points
		}
	}
	scores := make([]float64, len(targets))
	for i, tg := range targets {
		s := 0.0
		if maxEnl > 0 {
			s = enl[i] / maxEnl
		}
		if maxLoad > 0 {
			s += placeLoadWeight * float64(tg.points) / float64(maxLoad)
		}
		scores[i] = s
	}
	return scores
}

// placeSubtrees greedily assigns every subtree to one of targets
// partitions, all of them still empty, and returns the chosen target
// index per subtree (in the subtrees' input order). Subtrees are placed
// largest-first — big subtrees anchor the layout, small ones then join
// whichever anchor they enlarge least — and every assignment updates
// the running union box and load, so one call packs a whole spill
// coherently. Ties resolve to the lowest target index; the assignment
// is deterministic for fixed inputs.
func placeSubtrees(subs []placeBox, targets int) []int {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	//semtree:allow boundaryonce: placement-time largest-first ordering at spill/rebalance; not on the query-result path
	sort.Slice(order, func(a, b int) bool {
		if subs[order[a]].points != subs[order[b]].points {
			return subs[order[a]].points > subs[order[b]].points
		}
		return order[a] < order[b]
	})
	state := make([]placeTarget, targets)
	assign := make([]int, len(subs))
	for _, si := range order {
		scores := placeScores(subs[si], state)
		best := 0
		for j := 1; j < len(scores); j++ {
			if scores[j] < scores[best] {
				best = j
			}
		}
		assign[si] = best
		state[best].lo, state[best].hi = kdtree.UnionBox(state[best].lo, state[best].hi, subs[si].lo, subs[si].hi)
		state[best].points += subs[si].points
	}
	return assign
}

// assignTargets maps each subtree of a spill or a balanced install to
// one of targets, all of them still empty: the placement kernel packs
// geometrically close subtrees together (it spreads one anchor per
// partition and clusters the surplus).
func (t *Tree) assignTargets(subs []placeBox, targets []cluster.NodeID) []cluster.NodeID {
	assign := make([]cluster.NodeID, len(subs))
	for i, ti := range t.place(subs, len(targets)) {
		assign[i] = targets[ti]
	}
	return assign
}
