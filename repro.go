// Package repro is a from-scratch Go reproduction of
//
//	Bar-Yehuda, Censor-Hillel, Ghaffari, Schwartzman:
//	"Distributed Approximation of Maximum Independent Set and Maximum
//	Matching", PODC 2017 (arXiv:1708.00276),
//
// including every substrate the paper's algorithms need: a synchronous
// CONGEST/LOCAL round simulator with message-bit accounting, MIS and coloring
// black boxes, the local-aggregation line-graph machinery of Theorem 2.8, and
// exact combinatorial baselines for evaluating approximation ratios.
//
// The facade exposes the paper's headline results:
//
//	MaxIS              ∆-approximate MaxIS, O(MIS(G)·log W) rounds (Thm 2.3)
//	MaxISDeterministic ∆-approximate MaxIS, O(∆ + log* n)-style (§2.3)
//	MWM2               2-approximate weighted matching on L(G) (Thm 2.10)
//	MWM2Deterministic  deterministic-reduction variant of the same
//	FastMCM            (2+ε)-approximate matching, O(log∆/loglog∆) (Thm 3.2)
//	FastMWM            (2+ε)-approximate weighted matching (§B.1)
//	OneEpsMCM          (1+ε)-approximate matching (Thm B.4, LOCAL)
//	ProposalMCM        the alternative (2+ε) proposal algorithm (§B.4)
//	NearlyMaximalIS    the §3.1 nearly-maximal independent set (Thm 3.1)
//	SequentialMaxIS    Algorithm 1, the sequential local-ratio meta-algorithm
//
// Every facade function dispatches through the internal algorithm registry,
// which also powers the string-keyed Run (see Algorithms for names), the
// cmd/distmatch, cmd/sweep and cmd/benchtab CLIs, and the cmd/reprod job
// service — identical seeds give identical results across all of them.
//
// Graphs are built with the re-exported constructors (NewGraphBuilder, GNP,
// RandomRegular, …). All algorithms are deterministic given WithSeed.
package repro

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/rng"
)

// Graph is the undirected node- and edge-weighted graph all algorithms run
// on. Topology is an immutable CSR structure: build graphs with
// NewGraphBuilder or the generators below, and amend built graphs with
// Graph.WithEdges.
type Graph = graph.Graph

// GraphBuilder accumulates edges and freezes them into an immutable Graph.
type GraphBuilder = graph.Builder

// GraphEdge is an undirected edge in canonical form (U < V).
type GraphEdge = graph.Edge

// Graph constructors re-exported from the graph substrate.
var (
	NewGraphBuilder = graph.NewBuilder
	Star            = graph.Star
	Path            = graph.Path
	Cycle           = graph.Cycle
	Complete        = graph.Complete
	Grid            = graph.Grid
	Caterpillar     = graph.Caterpillar
	EncodeGraph     = graph.Encode
)

// DecodeGraph parses the text format EncodeGraph writes, with no size caps.
func DecodeGraph(r io.Reader) (*Graph, error) {
	return graph.Decode(r, graph.ReadOptions{})
}

// GNP returns an Erdős–Rényi G(n, p) graph drawn with the given seed.
func GNP(n int, p float64, seed uint64) *Graph {
	return graph.GNP(n, p, rng.New(seed))
}

// RandomRegular returns a random d-regular graph drawn with the given seed.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, d, rng.New(seed))
}

// RandomBipartite returns a random bipartite graph and its sides.
func RandomBipartite(nl, nr int, p float64, seed uint64) (*Graph, []int) {
	return graph.RandomBipartite(nl, nr, p, rng.New(seed))
}

// RandomTree returns a uniform random labeled tree.
func RandomTree(n int, seed uint64) *Graph {
	return graph.RandomTree(n, rng.New(seed))
}

// AssignUniformNodeWeights draws node weights uniformly from [1, maxW].
func AssignUniformNodeWeights(g *Graph, maxW int64, seed uint64) {
	graph.AssignUniformNodeWeights(g, maxW, rng.New(seed))
}

// AssignUniformEdgeWeights draws edge weights uniformly from [1, maxW].
func AssignUniformEdgeWeights(g *Graph, maxW int64, seed uint64) {
	graph.AssignUniformEdgeWeights(g, maxW, rng.New(seed))
}

// CostStats summarizes the communication cost of a distributed execution.
type CostStats struct {
	// Rounds is the algorithm's round complexity (virtual rounds of the
	// machine; for line-graph executions real rounds are 2× this, and they
	// are reported in RealRounds).
	Rounds int
	// RealRounds, Messages and Bits are the synchronous network rounds,
	// message count and total message bits actually used.
	RealRounds int
	Messages   int
	Bits       int
	// MaxMessageBits and BitBudget document CONGEST compliance: the largest
	// message sent vs the enforced per-message budget (0 in LOCAL).
	MaxMessageBits int
	BitBudget      int
}

// ISResult is an independent-set answer.
type ISResult struct {
	InSet  []bool
	Weight int64
	Cost   CostStats
}

// MatchingResult is a matching answer (edge IDs of the input graph).
type MatchingResult struct {
	Edges  []int
	Weight int64
	Cost   CostStats
}

// SequentialMaxIS runs Algorithm 1, the sequential local-ratio
// ∆-approximation (§2.1), with the default greedy independent-set selection.
func SequentialMaxIS(g *Graph) *ISResult {
	res, err := runSpec("seq-maxis", g, nil)
	if err != nil {
		// seq-maxis takes no parameters, so the registry cannot reject it.
		panic("repro: seq-maxis: " + err.Error())
	}
	out, _ := isResult(res, nil)
	return out
}

// isResult converts a registry answer into the typed IS facade result.
func isResult(res *registry.Result, err error) (*ISResult, error) {
	if err != nil {
		return nil, err
	}
	return &ISResult{InSet: res.InSet, Weight: res.Weight, Cost: costFromRegistry(res.Cost)}, nil
}

// matchingResult converts a registry answer into the typed matching result.
func matchingResult(res *registry.Result, err error) (*MatchingResult, error) {
	if err != nil {
		return nil, err
	}
	return &MatchingResult{Edges: res.Edges, Weight: res.Weight, Cost: costFromRegistry(res.Cost)}, nil
}

// MaxIS runs Algorithm 2: the distributed ∆-approximate maximum weight
// independent set in O(MIS(G)·log W) rounds (Theorem 2.3).
func MaxIS(g *Graph, opts ...Option) (*ISResult, error) {
	return isResult(runSpec("maxis", g, opts))
}

// MaxISDeterministic runs Algorithm 3 (§2.3): coloring followed by
// color-priority local ratio. With WithDeterministicColoring the coloring
// phase uses the Linial reduction, making the whole pipeline deterministic.
func MaxISDeterministic(g *Graph, opts ...Option) (*ISResult, error) {
	return isResult(runSpec("maxis-det", g, opts))
}

// MWM2 computes a 2-approximate maximum weight matching: Algorithm 2
// executed on the line graph through the Theorem 2.8 simulation
// (Theorem 2.10).
func MWM2(g *Graph, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("mwm2", g, opts))
}

// MWM2Deterministic computes a 2-approximate maximum weight matching via
// Algorithm 3 on the line graph (coloring + color-priority reduction).
func MWM2Deterministic(g *Graph, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("mwm2-det", g, opts))
}

// FastMCM computes a (2+ε)-approximate maximum cardinality matching in
// O(log∆/loglog∆)-style rounds: the §3.1 nearly-maximal independent set on
// the line graph (Theorem 3.2).
func FastMCM(g *Graph, eps float64, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("fastmcm", g, opts, WithEps(eps)))
}

// FastMWM computes a (2+ε)-approximate maximum weight matching via weight
// bucketing plus augmenting refinement (§B.1).
func FastMWM(g *Graph, eps float64, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("fastmwm", g, opts, WithEps(eps)))
}

// OneEpsMCM computes a (1+ε)-approximate maximum cardinality matching via
// Hopcroft–Karp phases with nearly-maximal hypergraph matchings
// (Theorem B.4; LOCAL model).
func OneEpsMCM(g *Graph, eps float64, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("oneeps", g, opts, WithEps(eps)))
}

// OneEpsMCMCongest computes a (1+ε)-approximate maximum cardinality matching
// using the CONGEST-model construction of Appendix B.3: random bipartitions,
// attenuated path-mass traversals (Claims B.5/B.6) and link-by-link token
// marking, with no explicit conflict graph.
func OneEpsMCMCongest(g *Graph, eps float64, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("oneeps-congest", g, opts, WithEps(eps)))
}

// ProposalMCM computes a (2+ε)-approximate maximum cardinality matching via
// the Appendix B.4 proposal algorithm.
func ProposalMCM(g *Graph, eps float64, opts ...Option) (*MatchingResult, error) {
	return matchingResult(runSpec("proposal", g, opts, WithEps(eps)))
}

// NMISResult reports a nearly-maximal independent set run (Theorem 3.1).
type NMISResult struct {
	InSet     []bool
	Uncovered int
	Cost      CostStats
}

// NearlyMaximalIS runs the §3.1 algorithm for its Theorem 3.1 round budget
// with factor K and failure target delta.
func NearlyMaximalIS(g *Graph, k int, delta float64, opts ...Option) (*NMISResult, error) {
	res, err := runSpec("nmis", g, opts, WithK(k), WithDelta(delta))
	if err != nil {
		return nil, err
	}
	return &NMISResult{
		InSet:     res.InSet,
		Uncovered: res.Uncovered,
		Cost:      costFromRegistry(res.Cost),
	}, nil
}

// WriteGraph encodes g to w in the text format understood by cmd/distmatch.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Encode(w, g) }

// CheckIndependentSet returns an error unless in is an independent set of g.
func CheckIndependentSet(g *Graph, in []bool) error {
	if !g.IsIndependentSet(in) {
		return fmt.Errorf("repro: set is not independent")
	}
	return nil
}

// CheckMatching returns an error unless edges form a matching in g.
func CheckMatching(g *Graph, edges []int) error {
	if !g.IsMatching(edges) {
		return fmt.Errorf("repro: edge set is not a matching")
	}
	return nil
}
