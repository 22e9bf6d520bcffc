// Package flow implements Dinic's maximum flow algorithm and the classical
// König-style reduction from maximum weight independent set on bipartite
// graphs to minimum cut. The reduction provides exact MaxIS baselines at
// scales where branch and bound is infeasible, so approximation ratios can be
// measured on large bipartite instances.
//
// Layer (DESIGN.md §2): flow is a substrate layer beside internal/exact,
// above internal/graph only.
//
// Concurrency and ownership: a Network is a mutable single-goroutine value
// (MaxFlow mutates residual capacities); build and solve it on one
// goroutine. The package-level reductions construct their own Network per
// call, so they are safe to invoke concurrently on a shared, read-only
// graph.
package flow

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Network is a capacitated directed flow network for Dinic's algorithm.
type Network struct {
	n     int
	head  []int   // head[v] = first arc index of v, -1 if none
	next  []int   // next arc in v's list
	to    []int   // arc target
	cap   []int64 // residual capacity
	level []int
	iter  []int
}

// NewNetwork returns a network with n nodes and no arcs.
func NewNetwork(n int) *Network {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &Network{n: n, head: h}
}

// Infinity is a capacity effectively unbounded for int64 arithmetic.
const Infinity = math.MaxInt64 / 4

// AddArc adds a directed arc u→v with the given capacity (and the implicit
// residual arc v→u with capacity 0).
func (f *Network) AddArc(u, v int, capacity int64) {
	f.push(u, v, capacity)
	f.push(v, u, 0)
}

func (f *Network) push(u, v int, c int64) {
	f.to = append(f.to, v)
	f.cap = append(f.cap, c)
	f.next = append(f.next, f.head[u])
	f.head[u] = len(f.to) - 1
}

func (f *Network) bfs(s, t int) bool {
	f.level = make([]int, f.n)
	for i := range f.level {
		f.level[i] = -1
	}
	queue := []int{s}
	f.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for a := f.head[v]; a != -1; a = f.next[a] {
			if f.cap[a] > 0 && f.level[f.to[a]] == -1 {
				f.level[f.to[a]] = f.level[v] + 1
				queue = append(queue, f.to[a])
			}
		}
	}
	return f.level[t] != -1
}

func (f *Network) dfs(v, t int, up int64) int64 {
	if v == t {
		return up
	}
	for ; f.iter[v] != -1; f.iter[v] = f.next[f.iter[v]] {
		a := f.iter[v]
		u := f.to[a]
		if f.cap[a] <= 0 || f.level[u] != f.level[v]+1 {
			continue
		}
		d := f.dfs(u, t, min(up, f.cap[a]))
		if d > 0 {
			f.cap[a] -= d
			f.cap[a^1] += d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow, mutating residual capacities.
func (f *Network) MaxFlow(s, t int) int64 {
	var flow int64
	for f.bfs(s, t) {
		f.iter = make([]int, f.n)
		copy(f.iter, f.head)
		for {
			d := f.dfs(s, t, Infinity)
			if d == 0 {
				break
			}
			flow += d
		}
	}
	return flow
}

// MinCutReachable returns the set of nodes reachable from s in the residual
// network; valid after MaxFlow. The cut consists of arcs from reachable to
// unreachable nodes.
func (f *Network) MinCutReachable(s int) []bool {
	seen := make([]bool, f.n)
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for a := f.head[v]; a != -1; a = f.next[a] {
			if f.cap[a] > 0 && !seen[f.to[a]] {
				seen[f.to[a]] = true
				queue = append(queue, f.to[a])
			}
		}
	}
	return seen
}

// MaxWeightBipartiteIS computes an exact maximum weight independent set of a
// bipartite graph via the complement of a minimum weight vertex cover
// (König's theorem generalized to weights through max-flow/min-cut):
// source→left with capacity w(v), right→sink with capacity w(v), and ∞
// capacity on the edges. The IS consists of left nodes still reachable from
// the source and right nodes not reachable — the complement of the min cut.
func MaxWeightBipartiteIS(g *graph.Graph, side []int) ([]bool, int64, error) {
	n := g.N()
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			return nil, 0, fmt.Errorf("flow: edge %v monochromatic; graph not bipartite under side", e)
		}
	}
	src, sink := n, n+1
	f := NewNetwork(n + 2)
	for v := 0; v < n; v++ {
		switch side[v] {
		case 0:
			f.AddArc(src, v, g.NodeWeight(v))
		case 1:
			f.AddArc(v, sink, g.NodeWeight(v))
		default:
			return nil, 0, fmt.Errorf("flow: node %d has side %d, want 0 or 1", v, side[v])
		}
	}
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if side[u] == 1 {
			u, v = v, u
		}
		f.AddArc(u, v, Infinity)
	}
	cutWeight := f.MaxFlow(src, sink)
	reach := f.MinCutReachable(src)
	out := make([]bool, n)
	var total int64
	for v := 0; v < n; v++ {
		inIS := (side[v] == 0 && reach[v]) || (side[v] == 1 && !reach[v])
		out[v] = inIS
		if inIS {
			total += g.NodeWeight(v)
		}
	}
	if want := g.TotalNodeWeight() - cutWeight; total != want {
		return nil, 0, fmt.Errorf("flow: IS weight %d disagrees with total-minus-cut %d", total, want)
	}
	return out, total, nil
}
