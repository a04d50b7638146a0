//semtree:clocksealed — scheduler, quota, and cost-model logic reads time only through the injected clock seam

package core

import (
	"sync"
	"time"

	"semtree/internal/cluster"
)

// This file is the online cost model of the self-tuning query
// scheduler. The paper's §V states query cost in messages and nodes
// visited; the model estimates the two unit prices behind that cost —
// per-hop fabric latency and per-node compute — from the ExecStats
// stream every query already reports, and prices both cross-partition
// k-NN protocols with them:
//
//	sequential wall ≈ messages × hop + nodes × compute   (serial hops)
//	fan-out wall    ≈ waves    × hop + nodes × compute   (≤ 3 waves)
//
// The shape parameters (messages and nodes per query, per protocol) are
// structural: they depend on the tree, the workload and the pruning
// guard, not on the network, so their averages stay valid when the
// fabric's latency changes — and when the region (bounding-box) guard
// cuts messages and nodes below what the splitting-plane bound needed,
// the savings flow into these same averages from the ExecStats stream and
// ProtocolAuto re-prices both protocols on the pruned shapes
// automatically.
// Only hop and compute are re-observed continuously — hop from the
// round-trip time of leaf calls (calls whose response reports zero
// downstream messages, so RTT = transit + local compute), compute from
// timed hop-free local traversals — which is what lets the protocol
// choice track a latency change within a handful of queries even while
// only one protocol is being exercised.

const (
	// ewmaAlpha is the weight of a new sample in every estimate. The
	// half-life is ln(2)/ln(1/(1−α)) ≈ 2.4 samples: an estimate crosses
	// 90% of a step change after 8 samples. A multi-partition query
	// contributes one leaf-call hop sample per terminal partition it
	// contacts (typically M−1), so the hop estimate converges within a
	// few queries of a latency change — the convergence test pins this
	// budget at 12 queries for the upward step and 60 for the decay back
	// down (it takes 6 — the sequential warm-up ends at the 16th query —
	// and 9 at the test's simulated prices).
	ewmaAlpha = 0.25

	// shapeAlpha is the floor of a new sample's weight in the
	// structural shape averages: the first 64 samples are averaged
	// exactly, later ones weigh 1/64. A query's message count varies
	// by a factor of four around its mean, and the shape of the
	// protocol not being chosen keeps its last value until it runs
	// again — at the hop estimate's weight that value is the mean of a
	// few unlucky queries, which is exactly the value that made the
	// protocol lose and would keep it losing.
	shapeAlpha = 1.0 / 64

	// seqWarmup is how many queries the sequential protocol's shape
	// averages before the fan-out may be chosen over it: sequential is
	// the cold-start default. A shape of fewer queries is noise, and the
	// sequential shape stops updating while the fan-out runs — chosen
	// over the mean of its first few queries, the fan-out would stay
	// chosen whenever those few happened to be expensive ones (a quarter
	// to half the time on the benchmark's nine-partition corpus, a few
	// in a thousand from 16 on).
	seqWarmup = 16

	// fanOutMargin is the hysteresis of the protocol choice: fan-out
	// must beat the sequential protocol's modeled wall by more than 10%,
	// and by at least one hop, to be chosen. Sequential is the cheaper
	// protocol in total work (tightest pruning bound), so ties and
	// noise-level differences — e.g. a residual hop estimate of a few
	// µs on a zero-latency fabric — must not flap the choice away from
	// it; and the fan-out pays about a hop of its own beyond its waves
	// (the local traversal ends before the probe leaves, the wave runs
	// on goroutines and is merged), so it must save a whole serial hop.
	// Where the visit order makes both protocols send the same messages
	// (a bulk-loaded tree under the nearest-first kernel: ~3.3 per
	// query each) three waves save a third of a hop, and over loopback
	// TCP, where a hop is CPU rather than latency, the fan-out runs
	// 15–40 % slower (ARCHITECTURE.md, "The two k-NN protocols").
	fanOutMargin = 0.9

	// fanNodesInflation is the cold-start guess for how many more nodes
	// the fan-out protocol examines than the sequential one (its remote
	// sides prune with a snapshot bound instead of the evolving one).
	fanNodesInflation = 1.25
)

// protoIdx indexes the per-protocol structural estimates.
type protoIdx int

const (
	idxSeq protoIdx = iota
	idxFan
	idxRange
	numProtoIdx
)

// ewma is one exponentially weighted moving average with a sample
// count. Samples may be negative (hop observations subtract a compute
// estimate that can overshoot); consumers clamp on read, so the average
// itself stays unbiased around the true value.
type ewma struct {
	v float64
	n int64
}

func (e *ewma) add(x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v += ewmaAlpha * (x - e.v)
	}
	e.n++
}

// addShape adds a structural sample at weight max(1/n, shapeAlpha).
func (e *ewma) addShape(x float64) {
	e.n++
	e.v += max(1/float64(e.n), shapeAlpha) * (x - e.v)
}

// protoShape is the structural (latency-independent) profile of one
// protocol — fabric messages, nodes visited and distance evaluations
// per query, slow averages (addShape) — and its observed wall per
// query.
type protoShape struct {
	msgs  ewma
	nodes ewma
	dists ewma
	wall  ewma
}

// costModel maintains the scheduler's estimates. One model lives on
// each Tree and is shared by every Scheduler over that tree; all
// methods are safe for concurrent use. The mutex sections are a few
// float operations — cheap next to a fabric message.
type costModel struct {
	mu    sync.Mutex
	hopNs ewma // per-hop fabric transit, ns (clamped ≥ 0 on read)
	cmpNs ewma // compute per visited node, ns

	shape [numProtoIdx]protoShape

	// choices is the protocol-choice histogram by executed protocol,
	// [1] when the scheduler picked it (vs the caller forcing it).
	choices [numProtoIdx][2]int64
}

// protoNames names each protocol in the choice histogram's keys.
var protoNames = [numProtoIdx]string{ProtocolNameSequential, ProtocolNameParallel, ProtocolNameRange}

// observeSample is the cluster.Observe subscriber: it refines the hop
// estimate from leaf calls. A response whose queryStats report zero
// downstream messages did all its work locally, so the call's RTT is
// one transit plus its local compute; subtracting the compute estimate
// leaves the hop. The sample is not clamped — when the compute estimate
// overshoots, the negative remainder pulls the average back toward the
// true (possibly zero) latency instead of accumulating one-sided noise.
func (m *costModel) observeSample(s cluster.CallSample) {
	if s.Err != nil {
		return
	}
	var st queryStats
	switch r := s.Resp.(type) {
	case *knnResp:
		st = r.Stats
	case rangeResp:
		st = r.Stats
	default:
		return
	}
	if st.Msgs != 0 {
		return
	}
	m.mu.Lock()
	m.hopNs.add(float64(s.RTT) - float64(st.Nodes)*m.cmpNs.v)
	m.mu.Unlock()
}

// hopLocked is the hop price every estimate reads: the EWMA clamped at
// zero. Callers hold m.mu.
func (m *costModel) hopLocked() float64 {
	return max(m.hopNs.v, 0)
}

// observeCompute records one hop-free local traversal: elapsed wall
// over nodes visited, the per-node compute price.
func (m *costModel) observeCompute(elapsed time.Duration, nodes int64) {
	if nodes <= 0 || elapsed < 0 {
		return
	}
	m.mu.Lock()
	m.cmpNs.add(float64(elapsed) / float64(nodes))
	m.mu.Unlock()
}

// observeQuery records a completed query's structural profile under the
// protocol that executed it.
func (m *costModel) observeQuery(idx protoIdx, st ExecStats) {
	m.mu.Lock()
	sh := &m.shape[idx]
	sh.msgs.addShape(float64(st.FabricMessages))
	sh.nodes.addShape(float64(st.NodesVisited))
	sh.dists.addShape(float64(st.DistanceEvals))
	sh.wall.add(float64(st.Wall))
	m.mu.Unlock()
}

// countChoice increments the protocol-choice histogram.
func (m *costModel) countChoice(idx protoIdx, auto bool) {
	a := 0
	if auto {
		a = 1
	}
	m.mu.Lock()
	m.choices[idx][a]++
	m.mu.Unlock()
}

// fanOutWaves is the serial hop depth of the probe-then-fan-out
// protocol: client→root, the synchronous probe, and one overlapped
// fan-out wave. Shallower trees have fewer waves.
func fanOutWaves(partitions int) float64 {
	switch {
	case partitions <= 1:
		return 1
	case partitions == 2:
		return 2
	default:
		return 3
	}
}

// estimates returns the modeled wall of both k-NN protocols at the
// current hop/compute prices. Structural parameters fall back to
// topology-derived guesses until their first samples arrive, so the
// model makes a sane cold-start choice (and an admission decision)
// before it has seen either protocol run.
func (m *costModel) estimates(partitions int) (estSeq, estFan time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.estimatesLocked(partitions)
}

// estimatesLocked is estimates for a caller holding m.mu.
func (m *costModel) estimatesLocked(partitions int) (estSeq, estFan time.Duration) {
	hop := m.hopLocked()
	seqMsgs := m.shape[idxSeq].msgs.v
	if m.shape[idxSeq].msgs.n == 0 {
		if m.shape[idxFan].msgs.n > 0 {
			seqMsgs = m.shape[idxFan].msgs.v
		} else {
			// Client→root plus one round trip per data partition.
			seqMsgs = float64(1 + 2*(partitions-1))
		}
	}
	seqNodes := m.shape[idxSeq].nodes.v
	if m.shape[idxSeq].nodes.n == 0 {
		seqNodes = m.shape[idxFan].nodes.v / fanNodesInflation
	}
	fanNodes := m.shape[idxFan].nodes.v
	if m.shape[idxFan].nodes.n == 0 {
		fanNodes = seqNodes * fanNodesInflation
	}
	estSeq = time.Duration(seqMsgs*hop + seqNodes*m.cmpNs.v)
	estFan = time.Duration(fanOutWaves(partitions)*hop + fanNodes*m.cmpNs.v)
	return estSeq, estFan
}

// choose resolves ProtocolAuto for one k-NN query: fan-out when the
// estimated hop latency dominates enough that overlapping the
// cross-partition hops beats the sequential protocol's modeled wall by
// more than the hysteresis margin and by at least one hop, sequential
// otherwise (CPU-bound regime, and the cold-start default for the
// first seqWarmup sequential queries).
// Single-partition trees have no cross-partition hops to overlap.
func (m *costModel) choose(partitions int) Protocol {
	if partitions <= 1 {
		return ProtocolSequential
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shape[idxSeq].msgs.n < seqWarmup {
		return ProtocolSequential
	}
	estSeq, estFan := m.estimatesLocked(partitions)
	if float64(estFan) < float64(estSeq)*fanOutMargin && float64(estFan)+m.hopLocked() <= float64(estSeq) {
		return ProtocolFanOut
	}
	return ProtocolSequential
}

// estimateWall prices one query under the given resolved protocol, for
// the admission controller's deadline-budget check. Range queries are
// priced like a two-wave fan-out over their own structural profile. A
// model with no samples for the needed components returns 0 (admit:
// nothing is known yet, so nothing is provably over budget).
func (m *costModel) estimateWall(p Protocol, partitions int) time.Duration {
	switch p {
	case ProtocolRange:
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.shape[idxRange].nodes.n == 0 {
			return 0
		}
		hop := m.hopLocked()
		waves := 2.0
		if partitions <= 1 {
			waves = 1
		}
		return time.Duration(waves*hop + m.shape[idxRange].nodes.v*m.cmpNs.v)
	case ProtocolFanOut:
		_, estFan := m.estimates(partitions)
		return estFan
	default:
		estSeq, _ := m.estimates(partitions)
		return estSeq
	}
}

// shapeIdx maps a resolved protocol to its structural profile.
func shapeIdx(p Protocol) protoIdx {
	switch p {
	case ProtocolFanOut:
		return idxFan
	case ProtocolRange:
		return idxRange
	default:
		return idxSeq
	}
}

// estimateCost prices one query under the given resolved protocol in
// cost units (see CostOf), for the quota bucket's admission charge: the
// protocol's structural profile (distance evaluations, messages,
// observed wall) at the cost-unit prices. A k-NN protocol with no
// samples yet borrows the other's profile; a model with no samples at
// all returns 0 — the query is admitted on a zero charge and the
// bucket settles up from the observed cost at reconciliation, so even
// a cold tenant cannot spend past its capacity for long.
func (m *costModel) estimateCost(p Protocol) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := &m.shape[shapeIdx(p)]
	if sh.dists.n == 0 && p != ProtocolRange {
		other := &m.shape[idxFan]
		if shapeIdx(p) == idxFan {
			other = &m.shape[idxSeq]
		}
		if other.dists.n > 0 {
			sh = other
		}
	}
	if sh.dists.n == 0 {
		return 0
	}
	return sh.dists.v*CostPerDistanceEval +
		sh.msgs.v*CostPerFabricMessage +
		sh.wall.v/float64(time.Millisecond)*CostPerWallMilli
}

// snapshot exports the current estimates, the observed per-protocol
// wall EWMAs (diagnostics: what queries actually cost, to hold against
// the modeled walls) and the choice histogram.
func (m *costModel) snapshot(partitions int) (hop, cmp, seqWall, fanWall time.Duration, choices map[string]int64) {
	m.mu.Lock()
	hop = time.Duration(m.hopLocked())
	cmp = time.Duration(m.cmpNs.v)
	seqWall = time.Duration(m.shape[idxSeq].wall.v)
	fanWall = time.Duration(m.shape[idxFan].wall.v)
	choices = make(map[string]int64)
	for idx, counts := range m.choices {
		if counts[0] > 0 {
			choices[protoNames[idx]] = counts[0]
		}
		if counts[1] > 0 {
			choices["auto:"+protoNames[idx]] = counts[1]
		}
	}
	m.mu.Unlock()
	return hop, cmp, seqWall, fanWall, choices
}
