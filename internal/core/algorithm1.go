// Package core implements the paper's primary contribution:
//
//   - Algorithm 1 (§2.1, Appendix A): the sequential local-ratio
//     ∆-approximation meta-algorithm for maximum weight independent set;
//   - Algorithm 2 (§2.2): its distributed implementation, which layers nodes
//     by weight (L_i = {v : 2^{i-1} < w(v) ≤ 2^i}), gates MIS instances by
//     layer, and finishes in O(MIS(G)·log W) rounds (Theorem 2.3);
//   - Algorithm 3 (§2.3): the deterministic coloring-based variant,
//     O(∆ + log* n) rounds given a (∆+1)-coloring;
//   - the 2-approximation of maximum weight matching obtained by executing
//     Algorithms 2/3 on the line graph through the local-aggregation
//     simulation of Theorem 2.8 (§2.4, Theorem 2.10).
//
// Algorithms 2 and 3 are written as agg.Machines — the paper's "local
// aggregation algorithms" (Theorem 2.9) — so one implementation serves both
// the MaxIS case (agg.RunDirect on G) and the matching case (agg.RunLine on
// L(G)) with no congestion overhead in CONGEST.
//
// Layer (DESIGN.md §2): core is the primary algorithm layer, above
// internal/agg and the mis/coloring black boxes, below internal/registry.
//
// Concurrency and ownership: every entry point is a synchronous run on the
// calling goroutine (the parallel simul engine underneath is an internal
// detail). Input graphs are strictly read-only and may be shared between
// concurrent runs; returned results are owned by the caller.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// PickIS selects the independent set used for one weight-reduction step of
// Algorithm 1. alive[v] and w[v] describe the current residual instance
// (nodes with w[v] ≤ 0 are already dead). The returned set must be
// independent in g and consist of alive nodes; Algorithm 1's correctness does
// not depend on how it is picked (§2.1: "it does not matter how the set U is
// picked").
type PickIS func(g *graph.Graph, alive []bool, w []int64) []int

// GreedyPick returns a maximal independent set of the alive subgraph, scanned
// in ID order. It is the default selection rule for Algorithm 1.
func GreedyPick(g *graph.Graph, alive []bool, w []int64) []int {
	var set []int
	blocked := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if !alive[v] || blocked[v] {
			continue
		}
		set = append(set, v)
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return set
}

// SingleNodePick returns the single alive node of maximum weight — the
// "simplest form" of the local ratio technique described in §1.1, which
// reduces one node per iteration (and would need O(n) distributed rounds).
func SingleNodePick(g *graph.Graph, alive []bool, w []int64) []int {
	best := -1
	for v := 0; v < g.N(); v++ {
		if alive[v] && (best == -1 || w[v] > w[best]) {
			best = v
		}
	}
	if best == -1 {
		return nil
	}
	return []int{best}
}

// RandomMISPick returns a maximal independent set of the alive subgraph,
// scanned in random order; exercises the meta-algorithm's indifference to the
// selection rule.
func RandomMISPick(r *rng.Stream) PickIS {
	return func(g *graph.Graph, alive []bool, w []int64) []int {
		order := r.Perm(g.N())
		var set []int
		blocked := make([]bool, g.N())
		for _, v := range order {
			if !alive[v] || blocked[v] {
				continue
			}
			set = append(set, v)
			for _, u := range g.Neighbors(v) {
				blocked[u] = true
			}
		}
		return set
	}
}

// SequentialLocalRatio runs Algorithm 1: iteratively pick an independent set
// U, reduce each u ∈ U's weight from its closed neighborhood (w₂ =
// Σ_{u∈U} w(u)·1_{N[u]}, so u itself drops to zero and is stacked as a
// candidate), delete nodes whose weight reaches ≤ 0, and finally unwind the
// stack in reverse, adding each candidate whose neighborhood stays outside
// the solution. The result is a ∆-approximate maximum weight independent set
// (Lemma 2.2 + Theorem 2.1).
func SequentialLocalRatio(g *graph.Graph, pick PickIS) []bool {
	if pick == nil {
		pick = GreedyPick
	}
	n := g.N()
	w := make([]int64, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		w[v] = g.NodeWeight(v)
		alive[v] = w[v] > 0
	}
	var stack []int // candidates in order of removal; unwound in reverse
	// inU marks the nodes of this round's U already checked, so that U's
	// independence costs O(Σ deg) instead of O(|U|²) edge lookups.
	inU := make([]bool, n)
	liveCount := 0
	for _, a := range alive {
		if a {
			liveCount++
		}
	}
	for liveCount > 0 {
		u := pick(g, alive, w)
		if len(u) == 0 {
			panic("core: PickIS returned an empty set on a non-empty instance")
		}
		// Validate independence and liveness; a broken selection rule must
		// fail loudly rather than silently void the approximation proof.
		for _, a := range u {
			if !alive[a] {
				panic(fmt.Sprintf("core: PickIS selected dead node %d", a))
			}
			if inU[a] {
				panic(fmt.Sprintf("core: PickIS selected node %d twice", a))
			}
			for _, b := range g.Neighbors(a) {
				if inU[b] {
					panic(fmt.Sprintf("core: PickIS selected adjacent nodes %d and %d", b, a))
				}
			}
			inU[a] = true
		}
		for _, a := range u {
			inU[a] = false
		}
		// Simultaneous closed-neighborhood reductions.
		for _, a := range u {
			for _, v := range g.Neighbors(a) {
				if alive[v] {
					w[v] -= w[a]
				}
			}
		}
		for _, a := range u {
			w[a] = 0
			alive[a] = false
			liveCount--
			stack = append(stack, a)
		}
		for v := 0; v < n; v++ {
			if alive[v] && w[v] <= 0 {
				alive[v] = false
				liveCount--
			}
		}
	}
	// Unwind: reverse order of removal.
	in := make([]bool, n)
	for i := len(stack) - 1; i >= 0; i-- {
		u := stack[i]
		free := true
		for _, v := range g.Neighbors(u) {
			if in[v] {
				free = false
				break
			}
		}
		if free {
			in[u] = true
		}
	}
	return in
}

// layerOf returns the paper's weight layer index: L_i = {v : 2^{i-1} < w ≤ 2^i},
// i.e. ⌈log₂ w⌉, with layerOf(1) = 0.
func layerOf(w int64) int64 {
	if w <= 1 {
		return 0
	}
	return int64(bits.Len64(uint64(w - 1)))
}
