package exact

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// MaxWeightMatchingBrute computes a maximum weight matching exactly by
// dynamic programming over node subsets; O(2ⁿ·n). It is the ground truth for
// small general weighted graphs (n ≤ ~22). Returns edge IDs and total weight.
func MaxWeightMatchingBrute(g *graph.Graph) ([]int, int64, error) {
	n := g.N()
	if n > 24 {
		return nil, 0, fmt.Errorf("exact: brute-force matching limited to 24 nodes, got %d", n)
	}
	// adjacency weights
	type nb struct {
		v  int
		id int
		w  int64
	}
	adj := make([][]nb, n)
	for id, e := range g.Edges() {
		adj[e.U] = append(adj[e.U], nb{v: e.V, id: id, w: g.EdgeWeight(id)})
		adj[e.V] = append(adj[e.V], nb{v: e.U, id: id, w: g.EdgeWeight(id)})
	}
	size := 1 << n
	dp := make([]int64, size)
	choice := make([]int32, size) // edge id chosen for lowest bit, or -1
	for mask := 1; mask < size; mask++ {
		choice[mask] = -1
		v := bits.TrailingZeros(uint(mask))
		// v unmatched:
		best := dp[mask&^(1<<v)]
		chosen := int32(-1)
		for _, e := range adj[v] {
			if mask&(1<<e.v) == 0 {
				continue
			}
			cand := e.w + dp[mask&^(1<<v)&^(1<<e.v)]
			if cand > best {
				best = cand
				chosen = int32(e.id)
			}
		}
		dp[mask] = best
		choice[mask] = chosen
	}
	// Reconstruct.
	var out []int
	mask := size - 1
	for mask != 0 {
		v := bits.TrailingZeros(uint(mask))
		c := choice[mask]
		if c == -1 {
			mask &^= 1 << v
			continue
		}
		out = append(out, int(c))
		e := g.EdgeByID(int(c))
		mask &^= 1 << e.U
		mask &^= 1 << e.V
	}
	return out, dp[size-1], nil
}

// MaxWeightIndependentSet computes an exact maximum weight independent set by
// branch and bound over 64-bit adjacency sets (n ≤ 64). It is exponential in
// the worst case but fast on the small and sparse instances used for
// approximation-ratio measurement. Returns the indicator vector and weight.
func MaxWeightIndependentSet(g *graph.Graph) ([]bool, int64, error) {
	n := g.N()
	if n > 64 {
		return nil, 0, fmt.Errorf("exact: branch-and-bound MaxIS limited to 64 nodes, got %d", n)
	}
	adj := make([]uint64, n)
	for _, e := range g.Edges() {
		adj[e.U] |= 1 << uint(e.V)
		adj[e.V] |= 1 << uint(e.U)
	}
	w := make([]int64, n)
	for v := 0; v < n; v++ {
		w[v] = g.NodeWeight(v)
	}
	s := &isSolver{adj: adj, w: w, n: n}
	var full uint64
	if n == 64 {
		full = ^uint64(0)
	} else {
		full = (1 << uint(n)) - 1
	}
	s.search(full, 0, 0)
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		if s.bestSet&(1<<uint(v)) != 0 {
			out[v] = true
		}
	}
	return out, s.best, nil
}

type isSolver struct {
	adj     []uint64
	w       []int64
	n       int
	best    int64
	bestSet uint64
}

func (s *isSolver) weightOf(set uint64) int64 {
	var sum int64
	for set != 0 {
		v := bits.TrailingZeros64(set)
		sum += s.w[v]
		set &= set - 1
	}
	return sum
}

// search explores candidate set cand with current accumulated weight cur and
// chosen set curSet.
func (s *isSolver) search(cand uint64, cur int64, curSet uint64) {
	if cur > s.best {
		s.best = cur
		s.bestSet = curSet
	}
	if cand == 0 {
		return
	}
	// Bound: even taking everything remaining cannot beat best.
	if cur+s.weightOf(cand) <= s.best {
		return
	}
	// Pick the candidate with the largest degree within cand to branch on
	// (max-degree branching shrinks the candidate set fastest); ties broken
	// by weight.
	pick, pickDeg := -1, -1
	var pickW int64
	for c := cand; c != 0; c &= c - 1 {
		v := bits.TrailingZeros64(c)
		d := bits.OnesCount64(s.adj[v] & cand)
		if d > pickDeg || (d == pickDeg && s.w[v] > pickW) {
			pick, pickDeg, pickW = v, d, s.w[v]
		}
	}
	v := uint64(1) << uint(pick)
	// Branch 1: include pick.
	s.search(cand&^v&^s.adj[pick], cur+s.w[pick], curSet|v)
	// Branch 2: exclude pick.
	s.search(cand&^v, cur, curSet)
}
