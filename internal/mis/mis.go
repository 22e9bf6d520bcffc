// Package mis implements the maximal independent set algorithms used as the
// black box "MIS(G)" inside the paper's Algorithm 2 (§2.2): Luby's classic
// algorithm [Lub86], a Ghaffari-style marking algorithm [Gha16], and a
// deterministic greedy-by-ID protocol.
//
// Every algorithm is expressed in two forms built from the same core:
//
//   - a Sub — an embeddable sub-protocol that a host machine (Algorithm 2)
//     drives inside a window of rounds, over a host-designated subset of
//     participating neighbors; and
//   - a standalone agg.Machine that runs the protocol to completion on a
//     graph (or, through agg.RunLine, on a line graph, where an MIS is a
//     maximal matching).
//
// All three are local aggregation algorithms (§2.4): they touch their
// neighborhoods only through Max/Min/Or/Sum aggregates, which is what lets
// Algorithm 2 run on the line graph in CONGEST without congestion overhead.
// Per the agg arena contract, every sub-protocol builds its query plans once
// at construction, as arrays of declarative agg.Query values whose guards
// include the host's participation conditions, and appends pointers to the
// entries in Queries, so driving a Sub allocates nothing per round.
//
// Layer (DESIGN.md §2): mis is a black-box layer beside internal/coloring,
// above internal/agg and internal/simul, below internal/core.
//
// Concurrency and ownership: factories return fresh protocol state per
// invocation; the Machines and Subs they build keep all per-node state in
// their Data arena views and are owned by (and confined to) the run that
// drives them. Input graphs are read-only and shareable.
package mis

import (
	"math/bits"

	"repro/internal/agg"
)

// Sub-protocol states stored in the state field.
const (
	subInactive  = 0 // not participating in the current instance
	subCompeting = 1 // participating, undecided
	subInMIS     = 2 // joined the independent set
	subOut       = 3 // has a neighbor in the independent set
)

// Sub is an MIS protocol embeddable inside a host machine's data layout.
// The host owns rounds and data; it calls Begin at the start of an instance,
// then alternates Queries/Update for WindowRounds(n) rounds (or until every
// participant it cares about is Decided). The host's participation
// conditions tell the sub-protocol which neighbors' data belong to the
// current instance. A Sub keeps all per-node state in the Data vector, so one
// Sub may serve every node of a run.
type Sub interface {
	// Fields is the number of data fields the sub-protocol owns.
	Fields() int
	// WindowRounds is the round budget for one instance on n virtual nodes —
	// the "MIS(G)" quantity of Theorem 2.3. Randomized protocols finish
	// within it w.h.p.; stragglers simply stay undecided and rejoin the next
	// instance, which preserves correctness (footnote 3 of the paper).
	WindowRounds(n int) int
	// Begin (re)initializes the sub-fields at offset for a new instance.
	Begin(info *agg.NodeInfo, d agg.Data, active bool)
	// Queries appends the round's precomputed query plan to qs, following the
	// agg.Machine contract.
	Queries(info *agg.NodeInfo, t int, d agg.Data, qs []*agg.Query) []*agg.Query
	Update(info *agg.NodeInfo, t int, d agg.Data, results []int64)
	// Decided reports whether this node settled in the current instance.
	Decided(d agg.Data) bool
	// InMIS reports whether this node joined the set (valid once Decided).
	InMIS(d agg.Data) bool
}

// SubFactory builds a Sub whose fields live at data[off:off+Fields()] and
// which aggregates only over neighbors whose full data vector meets every
// participates condition (none: every neighbor participates). The Sub adds up
// to two conditions of its own to each query's guard, so a host passes at
// most agg.MaxConds-2 of them.
type SubFactory func(off int, participates ...agg.Cond) Sub

// guard returns the conjunction of the host's participation conditions and
// the sub-protocol's own.
func guard(participates []agg.Cond, own ...agg.Cond) agg.Guard {
	return agg.Where(append(append([]agg.Cond(nil), participates...), own...)...)
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ---------------------------------------------------------------------------
// Luby's algorithm (permutation variant): in each two-round phase every
// competing node draws a random key; a node whose key beats all competing
// neighbors' keys joins the set, and its neighbors retire in the notify
// round. Finishes in O(log n) rounds w.h.p.

type lubySub struct {
	off     int
	compete [1]agg.Query // even rounds: compare keys
	notify  [1]agg.Query // odd rounds: did a neighbor join?
}

// NewLubySub returns the Luby sub-protocol factory.
func NewLubySub() SubFactory {
	return func(off int, participates ...agg.Cond) Sub {
		s := &lubySub{off: off}
		// Highest key among participating competing neighbors.
		s.compete[0] = agg.Query{Agg: agg.Max,
			Guard: guard(participates, agg.Eq(off, subCompeting)),
			Value: agg.Field(off + 1), Else: -1}
		// Did a participating neighbor join?
		s.notify[0] = agg.Query{Agg: agg.Or,
			Guard: guard(participates, agg.Eq(off, subInMIS)),
			Value: agg.Constant(1)}
		return s
	}
}

func (s *lubySub) Fields() int { return 2 } // state, key

func (s *lubySub) WindowRounds(n int) int {
	// 2 rounds per phase; 2·log₂n + 8 phases suffice w.h.p. for the
	// permutation variant (each phase removes ≥ half the edges in
	// expectation).
	return 2 * (2*ceilLog2(n+1) + 8)
}

func (s *lubySub) state(d agg.Data) int64       { return d[s.off] }
func (s *lubySub) setState(d agg.Data, v int64) { d[s.off] = v }
func (s *lubySub) key(d agg.Data) int64         { return d[s.off+1] }

// drawKey returns a priority key: ~2·log n random bits concatenated with the
// node ID, so keys are distinct across nodes (ID tie-break) and O(log n) bits
// as CONGEST requires.
func drawKey(info *agg.NodeInfo) int64 {
	r := info.Rand.Intn(info.N*info.N + 1)
	return int64(r)*int64(info.N) + int64(info.ID) + 1
}

func (s *lubySub) Begin(info *agg.NodeInfo, d agg.Data, active bool) {
	if active {
		s.setState(d, subCompeting)
		d[s.off+1] = drawKey(info)
	} else {
		s.setState(d, subInactive)
		d[s.off+1] = 0
	}
}

func (s *lubySub) Queries(info *agg.NodeInfo, t int, d agg.Data, qs []*agg.Query) []*agg.Query {
	if t%2 == 0 {
		return agg.AppendPlan(qs, s.compete[:])
	}
	return agg.AppendPlan(qs, s.notify[:])
}

func (s *lubySub) Update(info *agg.NodeInfo, t int, d agg.Data, results []int64) {
	if s.state(d) != subCompeting {
		return
	}
	if t%2 == 0 {
		if s.key(d) > results[0] {
			s.setState(d, subInMIS)
		}
		return
	}
	if results[0] != 0 {
		s.setState(d, subOut)
		return
	}
	// Still competing: fresh key for the next phase.
	d[s.off+1] = drawKey(info)
}

func (s *lubySub) Decided(d agg.Data) bool {
	return s.state(d) == subInMIS || s.state(d) == subOut
}

func (s *lubySub) InMIS(d agg.Data) bool { return s.state(d) == subInMIS }

// ---------------------------------------------------------------------------
// Ghaffari-style MIS [Gha16]: every node holds a marking probability
// p_t ∈ {2⁻¹, 2⁻², …}; it doubles (capped at ½) when the effective degree
// Σ_{u∈N(v)} p_t(u) is below 2 and halves otherwise. A marked node with no
// marked neighbor joins. One virtual round per iteration.

const pFixShift = 20 // fixed-point denominator 2²⁰ for probability sums

type ghaffariSub struct {
	off    int
	maxExp int64
	plan   [3]agg.Query
}

// NewGhaffariSub returns the Ghaffari-style sub-protocol factory.
func NewGhaffariSub() SubFactory {
	return func(off int, participates ...agg.Cond) Sub {
		s := &ghaffariSub{off: off, maxExp: pFixShift - 1}
		competing := agg.Eq(off, subCompeting)
		s.plan = [3]agg.Query{
			// A marked competing neighbor? (the mark field is 0 or 1)
			{Agg: agg.Or, Guard: guard(participates, competing, agg.Eq(off+2, 1)), Value: agg.Constant(1)},
			// Effective degree: Σ 2^−pexp over competing neighbors, in
			// fixed point with pFixShift fraction bits.
			{Agg: agg.Sum, Guard: guard(participates, competing), Value: agg.FixedPow2Neg(off+1, pFixShift)},
			// A neighbor already in the set?
			{Agg: agg.Or, Guard: guard(participates, agg.Eq(off, subInMIS)), Value: agg.Constant(1)},
		}
		return s
	}
}

func (s *ghaffariSub) Fields() int { return 3 } // state, pexp, marked

func (s *ghaffariSub) WindowRounds(n int) int {
	return 4*ceilLog2(n+1) + 16
}

func (s *ghaffariSub) state(d agg.Data) int64 { return d[s.off] }
func (s *ghaffariSub) pexp(d agg.Data) int64  { return d[s.off+1] }
func (s *ghaffariSub) marked(d agg.Data) bool { return d[s.off+2] != 0 }

func (s *ghaffariSub) draw(info *agg.NodeInfo, d agg.Data) {
	p := 1.0 / float64(int64(1)<<uint(s.pexp(d)))
	if info.Rand.Bernoulli(p) {
		d[s.off+2] = 1
	} else {
		d[s.off+2] = 0
	}
}

func (s *ghaffariSub) Begin(info *agg.NodeInfo, d agg.Data, active bool) {
	if active {
		d[s.off] = subCompeting
		d[s.off+1] = 1 // p = 1/2
		s.draw(info, d)
	} else {
		d[s.off] = subInactive
		d[s.off+1] = 1
		d[s.off+2] = 0
	}
}

func (s *ghaffariSub) Queries(info *agg.NodeInfo, t int, d agg.Data, qs []*agg.Query) []*agg.Query {
	return agg.AppendPlan(qs, s.plan[:])
}

func (s *ghaffariSub) Update(info *agg.NodeInfo, t int, d agg.Data, results []int64) {
	if s.state(d) != subCompeting {
		return
	}
	neighborMarked, effDeg, neighborInMIS := results[0], results[1], results[2]
	if neighborInMIS != 0 {
		d[s.off] = subOut
		return
	}
	if s.marked(d) && neighborMarked == 0 {
		d[s.off] = subInMIS
		d[s.off+2] = 0
		return
	}
	// Probability adjustment: halve when crowded, double when sparse.
	if effDeg >= 2<<pFixShift {
		if s.pexp(d) < s.maxExp {
			d[s.off+1]++
		}
	} else if s.pexp(d) > 1 {
		d[s.off+1]--
	}
	s.draw(info, d)
}

func (s *ghaffariSub) Decided(d agg.Data) bool {
	return s.state(d) == subInMIS || s.state(d) == subOut
}

func (s *ghaffariSub) InMIS(d agg.Data) bool { return s.state(d) == subInMIS }

// ---------------------------------------------------------------------------
// Deterministic greedy-by-ID: a competing node whose ID is smaller than every
// competing neighbor's joins. Θ(n) rounds in the worst case (a path), but a
// deterministic black box for Algorithm 2.

type greedyIDSub struct {
	off     int
	compete [1]agg.Query
	notify  [1]agg.Query
}

// NewGreedyIDSub returns the deterministic greedy-by-ID factory.
func NewGreedyIDSub() SubFactory {
	return func(off int, participates ...agg.Cond) Sub {
		s := &greedyIDSub{off: off}
		// Smallest ID among participating competing neighbors; the
		// non-participant sentinel lies above any real ID.
		s.compete[0] = agg.Query{Agg: agg.Min,
			Guard: guard(participates, agg.Eq(off, subCompeting)),
			Value: agg.Field(off + 1), Else: 1 << 40}
		s.notify[0] = agg.Query{Agg: agg.Or,
			Guard: guard(participates, agg.Eq(off, subInMIS)),
			Value: agg.Constant(1)}
		return s
	}
}

func (s *greedyIDSub) Fields() int { return 2 } // state, id

func (s *greedyIDSub) WindowRounds(n int) int { return 2 * (n + 1) }

func (s *greedyIDSub) state(d agg.Data) int64 { return d[s.off] }

func (s *greedyIDSub) Begin(info *agg.NodeInfo, d agg.Data, active bool) {
	if active {
		d[s.off] = subCompeting
	} else {
		d[s.off] = subInactive
	}
	d[s.off+1] = int64(info.ID)
}

func (s *greedyIDSub) Queries(info *agg.NodeInfo, t int, d agg.Data, qs []*agg.Query) []*agg.Query {
	if t%2 == 0 {
		return agg.AppendPlan(qs, s.compete[:])
	}
	return agg.AppendPlan(qs, s.notify[:])
}

func (s *greedyIDSub) Update(info *agg.NodeInfo, t int, d agg.Data, results []int64) {
	if s.state(d) != subCompeting {
		return
	}
	if t%2 == 0 {
		if int64(info.ID) < results[0] {
			d[s.off] = subInMIS
		}
		return
	}
	if results[0] != 0 {
		d[s.off] = subOut
	}
}

func (s *greedyIDSub) Decided(d agg.Data) bool {
	return s.state(d) == subInMIS || s.state(d) == subOut
}

func (s *greedyIDSub) InMIS(d agg.Data) bool { return s.state(d) == subInMIS }
