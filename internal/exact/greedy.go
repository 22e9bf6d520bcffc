package exact

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// GreedyMatching returns the classical sequential greedy matching: scan edges
// in non-increasing weight order, keep every edge whose endpoints are both
// free. It is a 2-approximation of maximum weight matching and the standard
// centralized baseline.
func GreedyMatching(g *graph.Graph) []int {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(g.EdgeWeight(b), g.EdgeWeight(a))
	})
	used := make([]bool, g.N())
	var out []int
	for _, id := range order {
		e := g.EdgeByID(id)
		if used[e.U] || used[e.V] {
			continue
		}
		used[e.U], used[e.V] = true, true
		out = append(out, id)
	}
	return out
}

// GreedyWeightIS adds nodes in non-increasing weight order whenever
// independence permits; a simple weighted baseline.
func GreedyWeightIS(g *graph.Graph) []bool {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(g.NodeWeight(b), g.NodeWeight(a))
	})
	out := make([]bool, g.N())
	blocked := make([]bool, g.N())
	for _, v := range order {
		if blocked[v] {
			continue
		}
		out[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return out
}
