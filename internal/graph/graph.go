// Package graph implements the undirected weighted graphs on which every
// algorithm in this repository operates.
//
// The paper's algorithms run on a node-weighted communication graph
// G = (V, w, E) (MaxIS, §2) and on its line graph L(G) whose node weights are
// G's edge weights (matching, §2.4). This package provides both, plus the
// generators used by the benchmark harness and the structural predicates
// (independent set, matching) used to verify every algorithm's output.
//
// Nodes are identified by dense integers 0..N()-1; this doubles as the
// CONGEST model's assumption of unique O(log n)-bit identifiers.
//
// A Graph's topology is an immutable compressed-sparse-row (CSR) structure:
// flat offsets/neighbors/edge-ID arrays with each node's neighbor segment
// sorted ascending. Graphs are constructed through a Builder (see builder.go);
// once built, only node and edge weights may change. Adjacency tests and
// edge-ID lookups binary-search the sorted neighbor segment instead of
// consulting a hash map, and Neighbors/IncidentEdges return zero-copy
// subslices of the CSR arrays.
//
// Formats: one reader per format — Decode (text), DecodeBinary (RGB1, the
// upload wire format), ReadEdgeList and ReadMatrixMarket (real-world files)
// — each with its writer, plus the RGD1 on-disk CSR (WriteDisk, OpenDisk).
// Every reader takes ReadOptions caps and reserves memory only for input it
// has read, so a header that declares a huge graph costs an error, not an
// allocation.
//
// Layer (DESIGN.md §2, §2a): graph is the bottom substrate; every other
// package imports it and it imports only internal/rng.
//
// Concurrency and ownership: topology is immutable after Build, so any
// number of goroutines may read a shared Graph concurrently — this is what
// lets the job service and the graph store hand one Graph to many
// concurrent runs. Node and edge weights are mutable and unsynchronized:
// mutate them only while the graph is exclusively owned (construction
// time), never once it is shared. Neighbors/IncidentEdges return views into
// the CSR arrays that must not be modified or retained past the graph's
// lifetime.
package graph

import (
	"fmt"
	"slices"
)

// Edge is an undirected edge in canonical form (U < V).
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", x, e))
}

// Graph is an undirected graph with integer node weights and integer edge
// weights, stored in CSR form. Topology is immutable after Build; node and
// edge weights are mutable through SetNodeWeight/SetEdgeWeight. Construct
// graphs with NewBuilder or the generators.
type Graph struct {
	n int
	// offsets has length n+1; node v's incident arcs occupy positions
	// offsets[v]..offsets[v+1] of neighbors and edgeIDs.
	offsets []int32
	// neighbors holds each node's adjacent node IDs, sorted ascending within
	// the node's segment. len(neighbors) == 2·M().
	neighbors []int32
	// edgeIDs[k] is the dense edge index of the arc {v, neighbors[k]}.
	edgeIDs []int32
	// mirror[k] is the position of the reverse arc: if position k holds the
	// arc v→u, mirror[k] holds u→v. The round engine uses it for
	// slot-addressed message delivery.
	mirror []int32
	nodeW  []int64
	edges  []Edge // insertion order; index = dense edge ID
	edgeW  []int64
	maxDeg int
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// MaxDegree returns ∆(G), the maximum degree; 0 for an edgeless graph.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// MaxLineDegree returns ∆(L(G)), the maximum degree of the line graph: the
// most edges one edge shares an endpoint with; 0 for an edgeless graph.
func (g *Graph) MaxLineDegree() int {
	d := 0
	for _, e := range g.edges {
		d = max(d, g.Degree(e.U)+g.Degree(e.V)-2)
	}
	return d
}

// Neighbors returns the sorted neighbor IDs of v as a zero-copy view into the
// CSR arrays. The slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEdges returns the dense edge IDs incident to v, aligned with
// Neighbors(v) (IncidentEdges(v)[i] is the edge to Neighbors(v)[i]). The
// slice is a zero-copy view owned by the graph and must not be modified.
func (g *Graph) IncidentEdges(v int) []int32 {
	return g.edgeIDs[g.offsets[v]:g.offsets[v+1]]
}

// CSR exposes the raw offsets/neighbors/edgeIDs arrays for consumers that
// iterate the whole structure (the round engine, fingerprinting, line-graph
// construction). The arrays are owned by the graph and must not be modified.
func (g *Graph) CSR() (offsets, neighbors, edgeIDs []int32) {
	return g.offsets, g.neighbors, g.edgeIDs
}

// MirrorArcs returns mirror[k] = position of the reverse arc of position k in
// the CSR arrays. The round engine uses it to deliver each message directly
// into the receiver's inbox slot. The slice is owned by the graph and must
// not be modified.
func (g *Graph) MirrorArcs() []int32 { return g.mirror }

// arcIndex returns the position of the arc u→v within u's CSR segment, or
// false if {u,v} is not an edge. It binary-searches the sorted segment.
func (g *Graph) arcIndex(u, v int) (int32, bool) {
	seg := g.neighbors[g.offsets[u]:g.offsets[u+1]]
	i, ok := slices.BinarySearch(seg, int32(v))
	return g.offsets[u] + int32(i), ok
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Search from the lower-degree endpoint.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := g.arcIndex(u, v)
	return ok
}

// EdgeID returns the dense index of edge {u, v} and whether it exists. Edge
// indices identify nodes of the line graph.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	k, ok := g.arcIndex(u, v)
	if !ok {
		return 0, false
	}
	return int(g.edgeIDs[k]), true
}

// EdgeByID returns the edge with dense index id.
func (g *Graph) EdgeByID(id int) Edge { return g.edges[id] }

// Edges returns the edge list in insertion order. The slice is owned by the
// graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// NodeWeight returns w(v).
func (g *Graph) NodeWeight(v int) int64 { return g.nodeW[v] }

// SetNodeWeight sets w(v). Weights must be positive: the paper assumes
// integer weights in [W] (§2.2).
func (g *Graph) SetNodeWeight(v int, w int64) {
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive node weight %d", w))
	}
	g.nodeW[v] = w
}

// EdgeWeight returns the weight of edge id.
func (g *Graph) EdgeWeight(id int) int64 { return g.edgeW[id] }

// SetEdgeWeight sets the weight of edge id.
func (g *Graph) SetEdgeWeight(id int, w int64) {
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %d", w))
	}
	g.edgeW[id] = w
}

// MaxNodeWeight returns W = max_v w(v); 1 for an empty graph.
func (g *Graph) MaxNodeWeight() int64 {
	var w int64 = 1
	for _, x := range g.nodeW {
		if x > w {
			w = x
		}
	}
	return w
}

// TotalNodeWeight returns Σ_v w(v).
func (g *Graph) TotalNodeWeight() int64 {
	var s int64
	for _, x := range g.nodeW {
		s += x
	}
	return s
}

// Clone returns a graph sharing g's immutable topology with independent
// copies of the node and edge weights.
func (g *Graph) Clone() *Graph {
	c := *g
	c.nodeW = append([]int64(nil), g.nodeW...)
	c.edgeW = append([]int64(nil), g.edgeW...)
	return &c
}

// Validate checks internal consistency; it is used by generator tests and by
// the CLI when loading untrusted input.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 || len(g.nodeW) != g.n {
		return fmt.Errorf("graph: inconsistent node arrays")
	}
	if len(g.edges) != len(g.edgeW) {
		return fmt.Errorf("graph: inconsistent edge arrays")
	}
	if len(g.neighbors) != 2*len(g.edges) || len(g.edgeIDs) != len(g.neighbors) || len(g.mirror) != len(g.neighbors) {
		return fmt.Errorf("graph: handshake violation: %d arcs, 2m=%d", len(g.neighbors), 2*len(g.edges))
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		if g.nodeW[v] <= 0 {
			return fmt.Errorf("graph: node %d has non-positive weight %d", v, g.nodeW[v])
		}
		seg := g.Neighbors(v)
		for i, u := range seg {
			if i > 0 && seg[i-1] >= u {
				return fmt.Errorf("graph: neighbor segment of %d not strictly sorted", v)
			}
			if int(u) < 0 || int(u) >= g.n || int(u) == v {
				return fmt.Errorf("graph: bad neighbor %d of node %d", u, v)
			}
		}
	}
	for i, e := range g.edges {
		if e.U >= e.V {
			return fmt.Errorf("graph: edge %d = %v not canonical", i, e)
		}
		if got, ok := g.EdgeID(e.U, e.V); !ok || got != i {
			return fmt.Errorf("graph: edge index broken for %v", e)
		}
	}
	for k, mk := range g.mirror {
		if mk < 0 || int(mk) >= len(g.mirror) || int(g.mirror[mk]) != k {
			return fmt.Errorf("graph: mirror arc broken at position %d", k)
		}
	}
	return nil
}

// IsIndependentSet reports whether in[v] designates an independent set.
func (g *Graph) IsIndependentSet(in []bool) bool {
	for _, e := range g.edges {
		if in[e.U] && in[e.V] {
			return false
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether in designates an independent set
// that cannot be extended: every node is in the set or adjacent to it.
func (g *Graph) IsMaximalIndependentSet(in []bool) bool {
	if !g.IsIndependentSet(in) {
		return false
	}
	for v := 0; v < g.n; v++ {
		if in[v] {
			continue
		}
		covered := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// SetWeight returns Σ_{v: in[v]} w(v).
func (g *Graph) SetWeight(in []bool) int64 {
	var s int64
	for v, ok := range in {
		if ok {
			s += g.nodeW[v]
		}
	}
	return s
}

// IsMatching reports whether the edge-index set m is a matching (no two
// chosen edges share an endpoint).
func (g *Graph) IsMatching(m []int) bool {
	used := make(map[int]bool, 2*len(m))
	for _, id := range m {
		if id < 0 || id >= len(g.edges) {
			return false
		}
		e := g.edges[id]
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U], used[e.V] = true, true
	}
	return true
}

// IsMaximalMatching reports whether m is a matching such that every edge of g
// shares an endpoint with some matched edge.
func (g *Graph) IsMaximalMatching(m []int) bool {
	if !g.IsMatching(m) {
		return false
	}
	used := make([]bool, g.n)
	for _, id := range m {
		e := g.edges[id]
		used[e.U], used[e.V] = true, true
	}
	for _, e := range g.edges {
		if !used[e.U] && !used[e.V] {
			return false
		}
	}
	return true
}

// MatchingWeight returns the total edge weight of the matching m.
func (g *Graph) MatchingWeight(m []int) int64 {
	var s int64
	for _, id := range m {
		s += g.edgeW[id]
	}
	return s
}

// MatchedMates returns mate[v] = u if {v,u} ∈ m, else -1.
func (g *Graph) MatchedMates(m []int) []int {
	mate := make([]int, g.n)
	for i := range mate {
		mate[i] = -1
	}
	for _, id := range m {
		e := g.edges[id]
		mate[e.U], mate[e.V] = e.V, e.U
	}
	return mate
}

// LineGraph returns L(G): one node per edge of g, adjacent iff the edges
// share an endpoint. Node weights of L(G) are the edge weights of g, as
// required for reducing maximum weight matching to MaxIS (§2.4).
//
// Construction consumes the CSR directly: in a simple graph two distinct
// edges share at most one endpoint, so enumerating unordered pairs of
// incident edges around every node emits each line-graph edge exactly once
// and no deduplication index is needed.
func (g *Graph) LineGraph() *Graph {
	b := NewBuilder(len(g.edges))
	for i := range g.edges {
		b.SetNodeWeight(i, g.edgeW[i])
	}
	lineEdges := 0
	for v := 0; v < g.n; v++ {
		d := g.Degree(v)
		lineEdges += d * (d - 1) / 2
	}
	b.Grow(lineEdges)
	for v := 0; v < g.n; v++ {
		ids := g.IncidentEdges(v)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				b.MustAddEdge(int(ids[i]), int(ids[j]))
			}
		}
	}
	return b.MustBuild()
}
