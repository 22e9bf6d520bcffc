package registry

// Property tests pinning the CSR graph core to the reference semantics of
// the original adjacency-list implementation: for every registered generator
// and several seeds, the CSR adjacency must agree with an independent
// reconstruction from the edge list, edge-ID lookups must be consistent, and
// the text encoding must round-trip without loss.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// genCase returns workable params for each registered generator at a seed.
func genCase(name string, seed uint64) GenParams {
	p := GenParams{Seed: seed, MaxW: 32}
	switch name {
	case "gnp":
		p.N, p.P = 40, 0.15
	case "regular":
		p.N, p.D = 30, 4
	case "bipartite":
		p.N, p.N2, p.P = 16, 20, 0.2
	case "tree":
		p.N = 45
	case "star", "path", "cycle":
		p.N = 25
	case "complete":
		p.N = 12
	case "grid":
		p.Rows, p.Cols = 5, 7
	case "caterpillar":
		p.Spine, p.Legs = 6, 4
	default:
		p.N = 20
	}
	return p
}

// referenceAdjacency rebuilds sorted neighbor lists and incident edge sets
// from the edge list alone — the old graph core's source of truth.
func referenceAdjacency(g *graph.Graph) (adj [][]int, inc [][]int) {
	adj = make([][]int, g.N())
	inc = make([][]int, g.N())
	for id, e := range g.Edges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
		inc[e.U] = append(inc[e.U], id)
		inc[e.V] = append(inc[e.V], id)
	}
	for v := range adj {
		ids := inc[v]
		slices.SortFunc(ids, func(a, b int) int {
			return cmp.Compare(g.EdgeByID(a).Other(v), g.EdgeByID(b).Other(v))
		})
		slices.Sort(adj[v])
	}
	return adj, inc
}

func TestCSRMatchesReferenceSemanticsOnAllGenerators(t *testing.T) {
	for _, spec := range Generators() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", spec.Name, seed), func(t *testing.T) {
				g, err := spec.Build(genCase(spec.Name, seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}

				adj, inc := referenceAdjacency(g)
				degSum := 0
				for v := 0; v < g.N(); v++ {
					nbrs := g.Neighbors(v)
					ids := g.IncidentEdges(v)
					if g.Degree(v) != len(adj[v]) || len(nbrs) != len(adj[v]) || len(ids) != len(inc[v]) {
						t.Fatalf("node %d: degree %d, want %d", v, g.Degree(v), len(adj[v]))
					}
					degSum += len(nbrs)
					for i := range nbrs {
						if int(nbrs[i]) != adj[v][i] {
							t.Fatalf("node %d: neighbors %v, want %v", v, nbrs, adj[v])
						}
						if int(ids[i]) != inc[v][i] {
							t.Fatalf("node %d: incident edges %v, want %v", v, ids, inc[v])
						}
						// EdgeID agrees with the alignment contract.
						id, ok := g.EdgeID(v, int(nbrs[i]))
						if !ok || id != int(ids[i]) {
							t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d", v, nbrs[i], id, ok, ids[i])
						}
						if !g.HasEdge(v, int(nbrs[i])) || !g.HasEdge(int(nbrs[i]), v) {
							t.Fatalf("HasEdge(%d,%d) false for an edge", v, nbrs[i])
						}
					}
				}
				if degSum != 2*g.M() {
					t.Fatalf("handshake: Σdeg=%d, 2m=%d", degSum, 2*g.M())
				}
				// Negative adjacency: a few non-edges must stay non-edges.
				for v := 0; v < g.N() && v < 10; v++ {
					next := map[int]bool{}
					for _, u := range adj[v] {
						next[u] = true
					}
					for u := 0; u < g.N() && u < 10; u++ {
						if u != v && !next[u] {
							if g.HasEdge(v, u) {
								t.Fatalf("HasEdge(%d,%d) true for a non-edge", v, u)
							}
							if _, ok := g.EdgeID(v, u); ok {
								t.Fatalf("EdgeID(%d,%d) found a non-edge", v, u)
							}
						}
					}
				}

				// Weighted encode/decode round-trip preserves everything.
				var buf bytes.Buffer
				if err := graph.Encode(&buf, g); err != nil {
					t.Fatal(err)
				}
				h, err := graph.Decode(&buf, graph.ReadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if h.N() != g.N() || h.M() != g.M() {
					t.Fatalf("round trip changed sizes")
				}
				for v := 0; v < g.N(); v++ {
					if h.NodeWeight(v) != g.NodeWeight(v) {
						t.Fatalf("node %d weight changed", v)
					}
				}
				for id, e := range g.Edges() {
					hid, ok := h.EdgeID(e.U, e.V)
					if !ok || h.EdgeWeight(hid) != g.EdgeWeight(id) {
						t.Fatalf("edge %v lost or weight changed", e)
					}
				}
				if Fingerprint(g) != Fingerprint(h) {
					t.Fatal("fingerprint not stable across encode/decode round trip")
				}

				// Line-graph degrees satisfy deg_L(e) = deg(u)+deg(v)-2.
				lg := g.LineGraph()
				if lg.N() != g.M() {
					t.Fatalf("L(G) has %d nodes, want %d", lg.N(), g.M())
				}
				for id, e := range g.Edges() {
					if lg.Degree(id) != g.Degree(e.U)+g.Degree(e.V)-2 {
						t.Fatalf("line degree of edge %d wrong", id)
					}
					if lg.NodeWeight(id) != g.EdgeWeight(id) {
						t.Fatalf("line node weight of edge %d wrong", id)
					}
				}
			})
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p := genCase("gnp", 7)
	gen, _ := GetGenerator("gnp")
	g1, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(g1) != Fingerprint(g2) {
		t.Fatal("equal builds fingerprint differently")
	}
	g2.SetNodeWeight(0, g2.NodeWeight(0)+1)
	if Fingerprint(g1) == Fingerprint(g2) {
		t.Fatal("node-weight change not reflected in fingerprint")
	}
	g3 := g1.Clone()
	g3.SetEdgeWeight(0, g3.EdgeWeight(0)+1)
	if Fingerprint(g1) == Fingerprint(g3) {
		t.Fatal("edge-weight change not reflected in fingerprint")
	}
}
