package core

type node struct {
	splitDim int
	splitVal float64
}

// guardSq is a guard kernel: plane arithmetic is its job.
func guardSq(q []float64, n *node) float64 {
	d := q[n.splitDim] - n.splitVal
	return d * d
}

func badPrune(q []float64, n *node, radiusSq float64) bool {
	d := q[n.splitDim] - n.splitVal // want "raw splitting-plane arithmetic outside the region guard"
	return d*d > radiusSq
}

func guardedPrune(q []float64, n *node, radiusSq float64) bool {
	// Legal: this function routes pruning through the guard kernel, so
	// computing the plane distance to hand over is intended.
	d := q[n.splitDim] - n.splitVal
	_ = d
	return guardSq(q, n) > radiusSq
}

// A switch does not bless plane arithmetic: only a guard kernel does.
func ablationPrune(planeGuardOnly bool, q []float64, n *node, radiusSq float64) bool {
	if planeGuardOnly {
		d := q[n.splitDim] - n.splitVal // want "raw splitting-plane arithmetic outside the region guard"
		return d*d > radiusSq
	}
	return false
}

func annotated(q []float64, n *node) float64 {
	//semtree:allow guardexact: teaching example outside any search path
	return q[n.splitDim] - n.splitVal
}
