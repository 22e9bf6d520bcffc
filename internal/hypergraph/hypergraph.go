// Package hypergraph implements low-rank hypergraphs and the paper's
// nearly-maximal hypergraph matching algorithm (Appendix B.2).
//
// The (1+ε)-approximation of maximum matching reduces each Hopcroft–Karp
// phase to the following problem: given a hypergraph of rank d = O(1/ε)
// (one hyperedge per length-d augmenting path, over the graph's nodes), find
// a maximal matching of hyperedges among the nodes that stay active, while
// deactivating each node with probability at most δ. Lemma B.3 shows the
// algorithm below leaves no hyperedge with all nodes active after
// O(d²·(K²log(1/δ) + log_K ∆)) iterations.
//
// Layer (DESIGN.md §2): hypergraph is a substrate consumed by
// internal/augment's phase framework; it imports only internal/rng.
//
// Concurrency and ownership: a Hypergraph is a mutable single-goroutine
// value — build it, run the matching, read the outcome, all on one
// goroutine. Distinct Hypergraphs are independent, so concurrent phases
// over separate instances are safe.
package hypergraph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// Hypergraph is a hypergraph over nodes 0..n-1 with edges of rank ≤ d.
type Hypergraph struct {
	n        int
	rank     int
	edges    [][]int // sorted node lists
	incident [][]int // node -> incident edge indices
}

// New returns an empty hypergraph on n nodes with maximum rank d.
func New(n, rank int) *Hypergraph {
	return &Hypergraph{n: n, rank: rank, incident: make([][]int, n)}
}

// N returns the number of nodes.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// Edge returns the sorted node list of edge id.
func (h *Hypergraph) Edge(id int) []int { return h.edges[id] }

// AddEdge inserts a hyperedge over the given nodes and returns its index.
func (h *Hypergraph) AddEdge(nodes []int) (int, error) {
	if len(nodes) == 0 || len(nodes) > h.rank {
		return 0, fmt.Errorf("hypergraph: edge size %d outside [1, %d]", len(nodes), h.rank)
	}
	sorted := append([]int(nil), nodes...)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v < 0 || v >= h.n {
			return 0, fmt.Errorf("hypergraph: node %d out of range", v)
		}
		if i > 0 && sorted[i-1] == v {
			return 0, fmt.Errorf("hypergraph: duplicate node %d in edge", v)
		}
	}
	id := len(h.edges)
	h.edges = append(h.edges, sorted)
	for _, v := range sorted {
		h.incident[v] = append(h.incident[v], id)
	}
	return id, nil
}

// IsMatching reports whether the given edge set is node-disjoint.
func (h *Hypergraph) IsMatching(ids []int) bool {
	used := make(map[int]bool)
	for _, id := range ids {
		if id < 0 || id >= len(h.edges) {
			return false
		}
		for _, v := range h.edges[id] {
			if used[v] {
				return false
			}
			used[v] = true
		}
	}
	return true
}

// Params configures the nearly-maximal matching run.
type Params struct {
	K     int     // probability factor, ≥ 2
	Delta float64 // deactivation probability target δ
	Beta  int     // round-budget constant; 0 means 2
}

// Result of a nearly-maximal matching computation.
type Result struct {
	// Matching holds the chosen hyperedge indices (node-disjoint).
	Matching []int
	// Deactivated marks nodes removed by the good-round cap; Lemma B.10
	// bounds each node's probability of this by δ.
	Deactivated []bool
	// Iterations actually executed.
	Iterations int
	// Budget is the Lemma B.3 iteration bound that was enforced.
	Budget int
}

// maxEdgeDegree returns max over edges of the number of intersecting edges
// (the ∆ of Lemma B.3's log_K ∆ term).
func (h *Hypergraph) maxEdgeDegree() int {
	d := 1
	// stamp[e] == id+1 marks e as counted for edge id (id itself included,
	// so it is never counted).
	stamp := make([]int, len(h.edges))
	for id, nodes := range h.edges {
		stamp[id] = id + 1
		others := 0
		for _, v := range nodes {
			for _, e := range h.incident[v] {
				if stamp[e] != id+1 {
					stamp[e] = id + 1
					others++
				}
			}
		}
		d = max(d, others+1)
	}
	return d
}

// NearlyMaximalMatching runs the Appendix B.2 algorithm: marking
// probabilities per hyperedge starting at 1/K, divided by K when the
// intersecting probability mass is ≥ 2 and multiplied by K (capped at 1/K)
// otherwise; a marked edge with no marked intersecting edge joins the
// matching; a node that accumulates too many good rounds — rounds in which
// the light-edge probability mass at the node is ≥ 1/(2dK²) — without being
// matched is deactivated.
func (h *Hypergraph) NearlyMaximalMatching(p Params, r *rng.Stream) (*Result, error) {
	if p.K < 2 {
		return nil, fmt.Errorf("hypergraph: K must be ≥ 2, got %d", p.K)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return nil, fmt.Errorf("hypergraph: δ must be in (0,1), got %v", p.Delta)
	}
	beta := p.Beta
	if beta == 0 {
		beta = 2
	}
	d := float64(h.rank)
	K := float64(p.K)
	logDeg := math.Log(float64(h.maxEdgeDegree()) + 2)
	budget := int(math.Ceil(float64(beta)*d*d*(K*K*math.Log(1/p.Delta)+logDeg/math.Log(K)))) + 1
	goodCap := int(math.Ceil(float64(beta)*d*K*K*math.Log(1/p.Delta))) + 1

	m := len(h.edges)
	prob := make([]float64, m)
	liveEdge := make([]bool, m)
	for e := range prob {
		prob[e] = 1 / K
		liveEdge[e] = true
	}
	activeNode := make([]bool, h.n)
	for v := range activeNode {
		activeNode[v] = true
	}
	goodRounds := make([]int, h.n)
	deactivated := make([]bool, h.n)
	var matching []int

	marked := make([]bool, m)
	light := make([]bool, m)
	sums := make([]float64, m)
	liveCount := m
	// stamp[e2] == epoch marks e2 as summed for the current edge; bumping
	// epoch clears every mark at once.
	stamp := make([]int, m)
	epoch := 0

	// Run until no hyperedge is fully active — the matching must be maximal
	// among active nodes (Lemma B.3 guarantees this happens within the
	// budget for suitable constants; the hard cap catches parameterizations
	// for which our explicit constants are too small).
	hardCap := 64*budget + 1024
	iterations := 0
	for ; liveCount > 0; iterations++ {
		if iterations >= hardCap {
			return nil, fmt.Errorf("hypergraph: %d live edges after %d iterations (budget %d); constants too small", liveCount, iterations, budget)
		}
		// Intersecting probability mass per edge: Σ_{e'∩e≠∅} p(e'),
		// including e itself.
		for e := range sums {
			sums[e] = 0
		}
		for e, live := range liveEdge {
			if !live {
				continue
			}
			s := 0.0
			epoch++
			stamp[e] = epoch
			for _, v := range h.edges[e] {
				for _, e2 := range h.incident[v] {
					if liveEdge[e2] && stamp[e2] != epoch {
						stamp[e2] = epoch
						s += prob[e2]
					}
				}
			}
			sums[e] = s + prob[e]
			light[e] = sums[e] < 2
		}

		// Good-round bookkeeping and deactivation (the algorithm change of
		// Appendix B.2).
		lightMass := make([]float64, h.n)
		for e, live := range liveEdge {
			if live && light[e] {
				for _, v := range h.edges[e] {
					lightMass[v] += prob[e]
				}
			}
		}
		goodThreshold := 1 / (2 * d * K * K)
		for v := 0; v < h.n; v++ {
			if !activeNode[v] || lightMass[v] < goodThreshold {
				continue
			}
			goodRounds[v]++
			if goodRounds[v] > goodCap {
				deactivated[v] = true
				activeNode[v] = false
				for _, e := range h.incident[v] {
					if liveEdge[e] {
						liveEdge[e] = false
						liveCount--
					}
				}
			}
		}

		// Marking and joining.
		for e, live := range liveEdge {
			marked[e] = live && r.Bernoulli(prob[e])
		}
		for e, isM := range marked {
			if !isM || !liveEdge[e] {
				continue
			}
			lone := true
		scan:
			for _, v := range h.edges[e] {
				for _, e2 := range h.incident[v] {
					if e2 != e && liveEdge[e2] && marked[e2] {
						lone = false
						break scan
					}
				}
			}
			if !lone {
				continue
			}
			matching = append(matching, e)
			// Remove the edge's nodes and everything incident.
			for _, v := range h.edges[e] {
				activeNode[v] = false
				for _, e2 := range h.incident[v] {
					if liveEdge[e2] {
						liveEdge[e2] = false
						liveCount--
					}
				}
			}
		}

		// Probability updates.
		for e, live := range liveEdge {
			if !live {
				continue
			}
			if sums[e] >= 2 {
				prob[e] /= K
			} else {
				prob[e] = math.Min(prob[e]*K, 1/K)
			}
		}
	}

	return &Result{
		Matching:    matching,
		Deactivated: deactivated,
		Iterations:  iterations,
		Budget:      budget,
	}, nil
}
