package core

import (
	"repro/internal/agg"
)

// fColor reuses the layer slot: Algorithm 3 partitions nodes by color instead
// of by weight layer (§2.3).
const fColor = fLayer

// algorithm3 is the coloring-based deterministic MaxIS machine (Algorithm 3).
// Given a proper coloring, each two-round cycle lets every waiting node whose
// color is a local maximum among waiting neighbors perform the local-ratio
// weight reduction:
//
//	τ = 0  reduce: local color maxima become candidates, zero their weight
//	       and publish it (colors with larger index have priority);
//	τ = 1  apply: neighbors subtract Σ reduce; non-positive nodes are
//	       removed.
//
// Color classes are independent sets, and a strict local maximum has no
// same-color neighbor, so the candidates of one cycle are independent — the
// precondition of Lemma 2.2. After at most numColors cycles every node is a
// candidate or removed; the addition stage (shared with Algorithm 2) then
// unwinds candidates in reverse precedence order. With a (∆+1)-coloring the
// removal stage takes O(∆) cycles, matching the O(∆ + log* n) total of
// Theorem 2.10 once the coloring rounds are added.
type algorithm3 struct {
	color int64
}

// newAlgorithm3 builds the machine for a virtual node with the given color.
func newAlgorithm3(color int) *algorithm3 {
	return &algorithm3{color: int64(color)}
}

func (m *algorithm3) Fields() int { return numShared }

// waitingColorPlan asks for the highest color among live waiting neighbors.
// (fColor aliases fLayer, so this is distinct from waitingLayerPlan only in
// name; it is kept separate to mirror the paper's reduce-round phrasing.)
var waitingColorPlan = [1]agg.Query{
	{Agg: agg.Max, Guard: agg.Where(agg.Eq(fStatus, stWaiting)), Value: agg.Field(fColor), Else: -1},
}

func (m *algorithm3) Init(info *agg.NodeInfo, d agg.Data) {
	d[fStatus] = stWaiting
	d[fWeight] = info.Weight
	d[fColor] = m.color
	d[fCandTime] = -1
	d[fReduce] = 0
}

func (m *algorithm3) Queries(info *agg.NodeInfo, t int, data agg.Data, qs []*agg.Query) []*agg.Query {
	if t%2 == 0 {
		qs = agg.AppendPlan(qs, waitingColorPlan[:])
	} else {
		qs = agg.AppendPlan(qs, reducePlan[:])
	}
	return agg.AppendPlan(qs, additionPlan[:])
}

func (m *algorithm3) Update(info *agg.NodeInfo, t int, data agg.Data, results []int64) (bool, any) {
	phaseResults := results[:len(results)-3]
	if halt, out, handled := handleAddition(data, results[len(results)-3:]); handled {
		return halt, out
	}
	if t%2 == 0 {
		// Reduce round: strict local color maxima reduce their closed
		// neighborhood (the proper coloring rules out ties).
		if data[fStatus] == stWaiting && data[fColor] > phaseResults[0] {
			data[fStatus] = stCandidate
			data[fCandTime] = int64(t / 2)
			data[fReduce] = data[fWeight]
			data[fWeight] = 0
			data[fColor] = -1
		}
		return false, nil
	}
	// Apply round (only waiting nodes reach here).
	data[fWeight] -= phaseResults[0]
	if data[fWeight] <= 0 {
		return true, false
	}
	return false, nil
}
