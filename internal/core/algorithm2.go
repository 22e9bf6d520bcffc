package core

import (
	"repro/internal/agg"
	"repro/internal/mis"
)

// Data field layout shared by Algorithm 2 and Algorithm 3 machines. The
// fields are exactly the D_{v,i} = {w_i(v), status_v, …} of Theorem 2.9's
// proof, extended with the bookkeeping the addition stage needs.
const (
	fStatus   = 0 // one of the st* constants below
	fWeight   = 1 // current (reduced) weight w_v(v)
	fLayer    = 2 // ⌈log₂ w⌉ while waiting/ready; -1 afterwards
	fCandTime = 3 // iteration at which the node became a candidate; -1 before
	fReduce   = 4 // weight broadcast for subtraction in the apply round
	numShared = 5
)

// Node statuses (paper: waiting / ready / candidate / removed, §2.2). Removed
// nodes simply halt — under the aggregation semantics, leaving the
// computation is the removed(v) message. stInISAnnounce is the one-round
// addedToIS(v) broadcast before an accepted candidate halts.
const (
	stWaiting      = 0
	stReady        = 1
	stCandidate    = 2
	stInISAnnounce = 3
)

// additionPlan is appended to every round's query set: it drives the
// addition stage, in which a candidate may enter the independent set once
// every neighbor with precedence over it has decided (§2.2). Precedence =
// removed later = larger candidate timestamp, plus every neighbor still in
// the removal stage. The queries read only the shared fields, so one
// package-level plan serves Algorithms 2 and 3 alike.
var additionPlan = [3]agg.Query{
	// Latest candidate timestamp among live candidate neighbors.
	{Agg: agg.Max, Guard: agg.Where(agg.Eq(fStatus, stCandidate)), Value: agg.Field(fCandTime), Else: -1},
	// Did a neighbor just enter the independent set?
	{Agg: agg.Or, Guard: agg.Where(agg.Eq(fStatus, stInISAnnounce)), Value: agg.Constant(1)},
	// Is any neighbor still in the removal stage (waiting or ready)?
	{Agg: agg.Or, Guard: agg.Where(agg.Cond{Field: fStatus, Lo: stWaiting, Hi: stReady + 1}), Value: agg.Constant(1)},
}

// reducePlan sums the reduce amounts published by candidate neighbors — the
// apply half of the local-ratio weight reduction, shared by both machines.
var reducePlan = [1]agg.Query{
	{Agg: agg.Sum, Value: agg.Field(fReduce)},
}

// handleAddition advances the addition stage. results must be the three
// additionQueries results. It returns (halt, output, handled): handled means
// the node is in the addition stage and the phase logic must not touch it.
func handleAddition(data agg.Data, results []int64) (bool, any, bool) {
	maxCandTime, neighborJoined, removalActive := results[0], results[1], results[2]
	switch data[fStatus] {
	case stInISAnnounce:
		// Membership was visible to all neighbors last round; leave now.
		return true, true, true
	case stCandidate:
		// The reduce amount published when the candidacy began has been
		// consumed by the neighborhood's apply round by the time this runs
		// again; clear it so later apply rounds do not re-subtract it.
		data[fReduce] = 0
		if neighborJoined != 0 {
			// A neighbor with precedence joined the set: we are removed
			// (paper line 35-37). Leaving silently is the removed(v) message.
			return true, false, true
		}
		if removalActive == 0 && maxCandTime <= data[fCandTime] {
			// Every neighbor with precedence has decided and none joined:
			// announce membership, halt next round.
			data[fStatus] = stInISAnnounce
			return false, nil, true
		}
		return false, nil, true
	default:
		return false, nil, false
	}
}

// algorithm2 is the distributed layered MaxIS machine (Algorithm 2). One
// "iteration" of the paper occupies a fixed window of T = misT+3 virtual
// rounds, globally agreed:
//
//	τ = 0        sync: nodes with no live waiting neighbor in a higher
//	             weight layer become ready and enter the MIS instance
//	             (topmost-layer nodes never wait — Lemma A.1);
//	τ = 1..misT  the black-box MIS protocol runs among ready nodes;
//	τ = misT+1   MIS members become candidates: they zero their own weight
//	             and publish it as the reduce amount (the reduce(w) message);
//	             losers return to waiting for the next window;
//	τ = misT+2   everyone applies Σ reduce over the neighborhood; nodes
//	             whose weight drops ≤ 0 are removed (halt with NotInIS).
//
// A randomized MIS that misses its window leaves stragglers undecided; they
// rejoin the next window, which preserves correctness (footnote 3).
type algorithm2 struct {
	sub  mis.Sub
	misT int
}

// newAlgorithm2 builds the machine for one virtual node. n is the number of
// virtual nodes (fixes the MIS window budget).
func newAlgorithm2(factory mis.SubFactory, n int) *algorithm2 {
	sub := factory(numShared, agg.Eq(fStatus, stReady))
	return &algorithm2{sub: sub, misT: sub.WindowRounds(n)}
}

func (m *algorithm2) window() int { return m.misT + 3 }

func (m *algorithm2) Fields() int { return numShared + m.sub.Fields() }

// waitingLayerPlan asks for the highest weight layer among live waiting
// neighbors (the sync round's gate).
var waitingLayerPlan = [1]agg.Query{
	{Agg: agg.Max, Guard: agg.Where(agg.Eq(fStatus, stWaiting)), Value: agg.Field(fLayer), Else: -1},
}

func (m *algorithm2) Init(info *agg.NodeInfo, d agg.Data) {
	d[fStatus] = stWaiting
	d[fWeight] = info.Weight
	d[fLayer] = layerOf(info.Weight)
	d[fCandTime] = -1
	d[fReduce] = 0
	m.sub.Begin(info, d, false)
}

func (m *algorithm2) Queries(info *agg.NodeInfo, t int, data agg.Data, qs []*agg.Query) []*agg.Query {
	τ := t % m.window()
	switch {
	case τ == 0:
		qs = agg.AppendPlan(qs, waitingLayerPlan[:])
	case τ <= m.misT:
		qs = m.sub.Queries(info, τ-1, data, qs)
	case τ == m.misT+1:
		// bookkeeping round; addition queries only
	default: // τ == misT+2: apply reductions
		qs = agg.AppendPlan(qs, reducePlan[:])
	}
	return agg.AppendPlan(qs, additionPlan[:])
}

func (m *algorithm2) Update(info *agg.NodeInfo, t int, data agg.Data, results []int64) (bool, any) {
	τ := t % m.window()
	phaseResults := results[:len(results)-3]
	if halt, out, handled := handleAddition(data, results[len(results)-3:]); handled {
		return halt, out
	}
	switch {
	case τ == 0:
		maxWaitingLayer := phaseResults[0]
		active := data[fStatus] == stWaiting && data[fLayer] >= maxWaitingLayer
		if active {
			data[fStatus] = stReady
		}
		m.sub.Begin(info, data, active)
	case τ <= m.misT:
		m.sub.Update(info, τ-1, data, phaseResults)
	case τ == m.misT+1:
		if data[fStatus] != stReady {
			break
		}
		if m.sub.Decided(data) && m.sub.InMIS(data) {
			// reduce(w_v(v)) to all neighbors; own weight drops to zero
			// (the closed-neighborhood weight split of Lemma 2.2).
			data[fStatus] = stCandidate
			data[fCandTime] = int64(t / m.window())
			data[fReduce] = data[fWeight]
			data[fWeight] = 0
			data[fLayer] = -1
		} else {
			data[fStatus] = stWaiting
		}
	default: // apply
		data[fWeight] -= phaseResults[0]
		if data[fWeight] <= 0 {
			// Removed: output NotInIS and leave (the removed(v) message is
			// our disappearance).
			return true, false
		}
		data[fLayer] = layerOf(data[fWeight])
	}
	return false, nil
}
