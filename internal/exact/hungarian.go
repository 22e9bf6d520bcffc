package exact

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// MaxWeightBipartiteMatching computes a maximum weight matching of a
// bipartite graph exactly using the Hungarian algorithm with potentials
// (O(k³) for k = max side size). side[v] must be a valid 2-coloring of g
// (e.g. the one graph.RandomBipartite returns). It returns the matching edge
// IDs and the total weight.
func MaxWeightBipartiteMatching(g *graph.Graph, side []int) ([]int, int64, error) {
	var left, right []int
	for v := 0; v < g.N(); v++ {
		switch side[v] {
		case 0:
			left = append(left, v)
		case 1:
			right = append(right, v)
		default:
			return nil, 0, fmt.Errorf("exact: node %d has side %d, want 0 or 1", v, side[v])
		}
	}
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			return nil, 0, fmt.Errorf("exact: edge %v is monochromatic; graph is not bipartite under side", e)
		}
	}
	k := len(left)
	if len(right) > k {
		k = len(right)
	}
	if k == 0 {
		return nil, 0, nil
	}
	// Pad to a k×k assignment problem; absent pairs cost 0 so the maximum
	// weight perfect matching of the padded matrix equals the maximum weight
	// matching of g (all weights are positive).
	// Hungarian below *minimizes*, so negate.
	const inf = math.MaxInt64 / 4
	cost := make([][]int64, k+1)
	for i := range cost {
		cost[i] = make([]int64, k+1)
	}
	leftIdx := make(map[int]int, len(left))
	for i, v := range left {
		leftIdx[v] = i + 1
	}
	rightIdx := make(map[int]int, len(right))
	for j, v := range right {
		rightIdx[v] = j + 1
	}
	for id, e := range g.Edges() {
		u, v := e.U, e.V
		if side[u] == 1 {
			u, v = v, u
		}
		cost[leftIdx[u]][rightIdx[v]] = -g.EdgeWeight(id)
	}

	// Classic O(k³) Hungarian with row/column potentials (1-indexed).
	u := make([]int64, k+1)
	vPot := make([]int64, k+1)
	way := make([]int, k+1)
	p := make([]int, k+1) // p[j] = row assigned to column j
	for i := 1; i <= k; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, k+1)
		usedCol := make([]bool, k+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			usedCol[j0] = true
			i0 := p[j0]
			var delta int64 = inf
			j1 := -1
			for j := 1; j <= k; j++ {
				if usedCol[j] {
					continue
				}
				cur := cost[i0][j] - u[i0] - vPot[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= k; j++ {
				if usedCol[j] {
					u[p[j]] += delta
					vPot[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	var out []int
	var total int64
	for j := 1; j <= k; j++ {
		i := p[j]
		if i == 0 || i > len(left) || j > len(right) {
			continue
		}
		uNode, vNode := left[i-1], right[j-1]
		if id, ok := g.EdgeID(uNode, vNode); ok {
			// Skip zero-padded pairs that happen to coincide with no edge;
			// also skip real edges only if they'd reduce weight (cannot
			// happen with positive weights, but keep the guard).
			if g.EdgeWeight(id) > 0 {
				out = append(out, id)
				total += g.EdgeWeight(id)
			}
		}
	}
	return out, total, nil
}
