// Package agg implements the paper's "local aggregation algorithm" framework
// (§2.4, Definitions 2.4–2.7) and the congestion-free line-graph simulation
// of Theorem 2.8.
//
// A local aggregation algorithm accesses its neighborhood's data only through
// order-invariant aggregate functions that admit a joining function φ with
// f(X) = φ(f(X₁), f(X₂)) for any disjoint partition X₁ ∪ X₂ of the inputs
// (Definition 2.5). Algorithms are expressed as Machines: per (virtual) node
// state machines that publish O(log n)-bit Data each round and consume the
// results of aggregate Queries over their live neighbors' Data. A Query is a
// declarative value, not code: an aggregate from a closed set, a guard of up
// to MaxConds range conditions over Data fields, and a value that is a
// constant or a function of one field. The runtimes fold it with loops
// specialized per aggregate, and both endpoints of an edge evaluate it
// identically.
//
// Three runtimes execute a Machine:
//
//   - RunDirect: on the graph itself — one real round per virtual round, one
//     message per edge per round (each node broadcasts its Data).
//   - RunLine: on the line graph L(G) — Theorem 2.8's simulation. Each edge
//     e = {u, v} of G is a virtual node simulated by its primary endpoint
//     min(u, v); the secondary endpoint max(u, v) mirrors e's Data. Because
//     every edge e' ∈ N_{L(G)}(e) shares an endpoint with e, each endpoint
//     can compute the partial aggregate over its own side, and the joining
//     function combines the halves — two real rounds and exactly one message
//     per edge per round, independent of ∆.
//   - RunLineNaive: the naive simulation the paper warns about, which relays
//     every incident edge's data individually and pays a Θ(∆) round factor;
//     kept as the ablation baseline (experiment E8).
//
// # Arena runtime
//
// All three runtimes are allocation-free in steady state, mirroring the round
// engine one layer up (DESIGN.md §2c). Per-virtual-node Data vectors, the
// message payloads, and the per-edge simulation states live in flat []int64 /
// struct arenas sized once from the graph's CSR layout and reused across
// rounds; messages are pooled concrete types whose payloads view into those
// arenas. The contract this imposes on Machines:
//
//   - Init fills a caller-provided Data vector of exactly Fields() elements
//     (an arena view) instead of allocating one.
//   - Queries appends to a caller-provided buffer and returns it. Because
//     Queries must be pure in (info, t, data) anyway, machines build their
//     query plans once at construction, as arrays of declarative Query
//     values (an aggregate, a guard over Data fields, a value), and append
//     pointers to the entries (AppendPlan), so the per-round cost is copying
//     8-byte references; no query is built, copied or compared by value
//     per round.
//   - Update may retain no slice it is handed: data and results are arena
//     views that the runtime reuses the next round.
//
// Layer (DESIGN.md §2): agg sits directly above the internal/simul round
// engine and below the algorithm packages (core, mis, nmis, coloring) that
// express themselves as Machines.
//
// Concurrency and ownership: a runtime invocation (RunDirect/RunLine/
// RunLineNaive) is driven from one goroutine; any internal parallelism
// belongs to the simul engine underneath, whose sharding guarantees each
// Machine is stepped by exactly one worker per round. Machines are owned by
// their run — a Machine instance that keeps all per-node state in its Data
// arena view may be shared across virtual nodes, otherwise the build
// function must return a fresh instance per node. Result values are
// immutable once returned.
package agg

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simul"
)

// Data is the published per-node data D_{v,i} (Definition 2.7): a small tuple
// of integer fields. Implementations must keep it O(log n + log W) bits; the
// runtimes meter the actual encoded size against the CONGEST budget.
type Data []int64

// Clone returns a copy of d.
func (d Data) Clone() Data {
	c := make(Data, len(d))
	copy(c, d)
	return c
}

// Bits returns the number of bits needed to encode d: for each field a sign
// bit plus its magnitude.
func (d Data) Bits() int {
	b := 0
	for _, f := range d {
		mag := f
		if mag < 0 {
			mag = -mag
		}
		b += 1 + simul.BitsForRange(mag)
	}
	return b
}

// Aggregate names one of the order-invariant aggregate functions the
// paper's algorithms use (Definitions 2.4–2.5). Each has a joining function
// Join that is associative and commutative with Identity as neutral element,
// which makes any evaluation order — and any disjoint partition of the
// inputs — produce the same result. The set is closed: a runtime resolves
// the aggregate once per fold and runs a loop specialized to it.
type Aggregate uint8

// The aggregate functions used by the paper's algorithms. "and"/"or" are the
// Boolean aggregates of Observation 2.6 (any nonzero value counts as true);
// Sum is the weight-update aggregate from the proof of Theorem 2.9; Min/Max
// implement priority comparisons; BitOr unions small bitmasks (≤ 63 bits per
// chunk), which the coloring machines use to learn which palette colors the
// neighborhood occupies.
const (
	Sum Aggregate = iota
	Min
	Max
	And
	Or
	BitOr
)

var aggNames = [...]string{Sum: "sum", Min: "min", Max: "max", And: "and", Or: "or", BitOr: "bitor"}

// Name returns the aggregate's lower-case name.
func (a Aggregate) Name() string { return aggNames[a] }

// Identity returns the aggregate's neutral element: the value of the
// aggregate over an empty set.
func (a Aggregate) Identity() int64 {
	switch a {
	case Min:
		return math.MaxInt64
	case Max:
		return math.MinInt64
	case And:
		return 1
	default: // Sum, Or, BitOr
		return 0
	}
}

// Join is the joining function φ of Definition 2.5.
func (a Aggregate) Join(x, y int64) int64 {
	switch a {
	case Sum:
		return x + y
	case Min:
		if y < x {
			return y
		}
		return x
	case Max:
		if y > x {
			return y
		}
		return x
	case And:
		if x != 0 && y != 0 {
			return 1
		}
		return 0
	case Or:
		if x != 0 || y != 0 {
			return 1
		}
		return 0
	default: // BitOr
		return x | y
	}
}

// MaxConds is the number of conditions a Guard can hold.
const MaxConds = 3

// Cond is the guard condition Lo ≤ d[Field] < Hi on a neighbor's Data d.
type Cond struct {
	Field  int
	Lo, Hi int64
}

// Eq returns the condition d[field] == v.
func Eq(field int, v int64) Cond { return Cond{Field: field, Lo: v, Hi: v + 1} }

// Guard is a conjunction of up to MaxConds conditions. The zero Guard holds
// for every element.
type Guard struct {
	n     uint8
	conds [MaxConds]Cond
}

// Where returns the guard that holds when every condition does. More than
// MaxConds conditions is a construction-time bug in a query plan and panics.
func Where(conds ...Cond) Guard {
	if len(conds) > MaxConds {
		panic(fmt.Sprintf("agg: guard with %d conditions, at most %d fit", len(conds), MaxConds))
	}
	g := Guard{n: uint8(len(conds))}
	copy(g.conds[:], conds)
	return g
}

// valueKind selects how a Value is computed from a neighbor's Data d.
type valueKind uint8

// Value kinds; f is the Value's field index and k its constant.
const (
	constVal valueKind = iota // k
	fieldVal                  // d[f]
	shlVal                    // 1 << (d[f] − k)
	shrVal                    // 1 << (k − d[f])
)

// Value is the per-element quantity a Query aggregates; build one with
// Constant, Field, Bit or FixedPow2Neg. The zero Value is the constant 0.
type Value struct {
	kind valueKind
	f    int
	k    int64
}

// Constant returns the value k for every element.
func Constant(k int64) Value { return Value{kind: constVal, k: k} }

// Field returns the value d[f].
func Field(f int) Value { return Value{kind: fieldVal, f: f} }

// Bit returns the value 1 << (d[f] − k): a one-hot mask bit, as the coloring
// machines publish palette occupancy.
func Bit(f int, k int64) Value { return Value{kind: shlVal, f: f, k: k} }

// FixedPow2Neg returns the value 1 << (k − d[f]): 2^−d[f] in fixed point
// with k fraction bits.
func FixedPow2Neg(f int, k int64) Value { return Value{kind: shrVal, f: f, k: k} }

// Query asks for Agg over the live neighbors' Data: each neighbor d for
// which Guard holds contributes Value(d), every other neighbor contributes
// Else. Else is 0 unless set, which is the identity of Sum, Or and BitOr;
// Max and Min queries may set a sentinel instead of their ±∞ identity.
//
// A Query is a comparable value over field indices (O(log n)-bit Data,
// Definition 2.7), so both endpoints of an edge evaluate it identically in
// the line-graph runtime. Machines build their plans once, as arrays of
// Query, and hand the runtime pointers to the entries; the line runtime's
// exchange-folding memo identifies a query by that address (memo.go).
type Query struct {
	Agg   Aggregate
	Guard Guard
	Value Value
	Else  int64
}

// at returns the contribution of one neighbor's data d. The folds rely on
// the compiler inlining it, so keep it within the inlining budget (check
// with go build -gcflags=-m).
func (q *Query) at(d Data) int64 {
	for _, c := range q.Guard.conds[:q.Guard.n] {
		if x := d[c.Field]; x < c.Lo || x >= c.Hi {
			return q.Else
		}
	}
	v := &q.Value
	switch v.kind {
	case fieldVal:
		return d[v.f]
	case shlVal:
		return 1 << uint(d[v.f]-v.k)
	case shrVal:
		return 1 << uint(v.k-d[v.f])
	}
	return v.k // constVal
}

// Eval evaluates q over the given neighbor data set. It is the reference
// definition the runtimes' specialized folds must agree with.
func (q *Query) Eval(neighbors []Data) int64 {
	acc := q.Agg.Identity()
	for _, d := range neighbors {
		acc = q.Agg.Join(acc, q.at(d))
	}
	return acc
}

// AppendPlan appends a pointer to each entry of plan to qs. Machines call it
// from Queries with their precomputed plan arrays, so a round copies 8-byte
// references, never Query values.
func AppendPlan(qs []*Query, plan []Query) []*Query {
	for i := range plan {
		qs = append(qs, &plan[i])
	}
	return qs
}

// NodeInfo describes a virtual node to its Machine.
type NodeInfo struct {
	// ID is the virtual node's identifier: the node ID under RunDirect, the
	// edge ID under RunLine.
	ID int
	// N is the number of virtual nodes.
	N int
	// Degree is the virtual node's degree (deg_G(v), or deg_{L(G)}(e) =
	// deg(u)+deg(v)-2 under RunLine).
	Degree int
	// Weight is the virtual node's weight: w(v) under RunDirect, the edge
	// weight under RunLine (the node weight of L(G), §2.4).
	Weight int64
	// Rand is the virtual node's private randomness. Only Init and Update
	// may draw from it; Queries must be pure.
	Rand *rng.Stream
}

// Machine is a local aggregation algorithm for one virtual node.
//
// Protocol, in virtual rounds t = 0, 1, …:
//
//	Init(info, data₀)                             // fills the zeroed data₀
//	results_t = [q.Eval over live neighbors' data_t) for q in Queries(t, data_t)]
//	halt, output = Update(t, data_t, results_t)   // mutates data in place → data_{t+1}
//
// A machine that halts at Update(t) disappears from its neighbors'
// aggregations from round t+1 on; its final visible data is data_t. To
// announce a decision before leaving (the paper's addedToIS/removed
// messages), publish the decision in data at round t and halt at round t+1.
//
// Init fills the caller-provided data vector, which has exactly Fields()
// elements and is zeroed; the vector is an arena view owned by the runtime.
//
// Queries appends this round's queries to qs and returns the extended slice.
// It must depend only on (info, t, data) — never on private state or
// info.Rand — because the line-graph runtime re-evaluates it at the secondary
// endpoint. Machines append pointers into their precomputed plan arrays (see
// the package comment); the entries must stay unchanged for the whole run,
// and Queries must append into qs rather than return internal slices, so the
// runtime's buffer is what grows to steady state.
//
// A machine that keeps all per-node state in the Data vector may be shared
// across virtual nodes: build may return the same instance for every node.
// Sharing makes the instance's plan entries shared too — the same addresses
// at every node — which lets the line runtime answer the "every live edge
// except me" partials of a whole real node from one prefix/suffix fold per
// query (the [LPSR09] exchange-folding trick; see memo.go) instead of one
// O(∆) fold per simulated edge. Shared machines must be safe for concurrent
// method calls — stateless machines are.
type Machine interface {
	Fields() int
	Init(info *NodeInfo, data Data)
	Queries(info *NodeInfo, t int, data Data, qs []*Query) []*Query
	Update(info *NodeInfo, t int, data Data, results []int64) (halt bool, output any)
}

// MemoStats totals the exchange-folding memo's lookups over a run: a hit is
// a partial answered in O(1) from an existing prefix/suffix entry, a miss is
// an entry build or a direct fold. Zero for runtimes without a memo
// (RunDirect, RunLineNaive).
type MemoStats struct {
	Hits   uint64
	Misses uint64
}

// Add folds o into s.
func (s *MemoStats) Add(o MemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
}

// Result is the outcome of running a Machine under one of the runtimes.
type Result struct {
	// Outputs[i] is virtual node i's Halt output.
	Outputs []any
	// VirtualRounds is the number of Machine rounds executed (the paper's
	// round complexity); Metrics.Rounds counts real network rounds.
	VirtualRounds int
	Metrics       simul.Metrics
	// Memo totals the exchange-folding memo's hit/miss counts (RunLine
	// only).
	Memo MemoStats
}

// validateFields rejects machines whose Fields() cannot size an arena slot.
// (A machine can no longer publish a wrong-length Data vector: Init fills a
// runtime-owned view of exactly Fields() elements.)
func validateFields(id int, fields int) error {
	if fields < 0 {
		return fmt.Errorf("agg: virtual node %d declared %d data fields", id, fields)
	}
	return nil
}
