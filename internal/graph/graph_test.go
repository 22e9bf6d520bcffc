package graph

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAddEdgeErrors(t *testing.T) {
	b := NewBuilder(3)
	tests := []struct {
		name string
		u, v int
	}{
		{"self loop", 1, 1},
		{"u out of range", -1, 0},
		{"v out of range", 0, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := b.AddEdge(tc.u, tc.v); err == nil {
				t.Fatalf("AddEdge(%d,%d) succeeded, want error", tc.u, tc.v)
			}
		})
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	// Duplicates surface at Build, not AddEdge.
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatalf("AddEdge deferred duplicate check, got early error %v", err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge (reversed) accepted by Build")
	}
}

func TestBasicAccessors(t *testing.T) {
	b := NewBuilder(4)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(2, 1)
	b.MustAddEdge(3, 1)
	g := b.MustBuild()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	nb := g.Neighbors(1)
	want := []int32{0, 2, 3}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
	for i := range nb {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(1) = %v, want sorted %v", nb, want)
		}
	}
	if !g.HasEdge(1, 3) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	id, ok := g.EdgeID(3, 1)
	if !ok || g.EdgeByID(id) != (Edge{U: 1, V: 3}) {
		t.Fatalf("EdgeID/EdgeByID broken: id=%d ok=%v", id, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 2, V: 5}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(7)
}

func TestWeights(t *testing.T) {
	b := NewBuilder(2)
	b.MustAddEdge(0, 1)
	g := b.MustBuild()
	g.SetNodeWeight(0, 10)
	g.SetNodeWeight(1, 4)
	g.SetEdgeWeight(0, 7)
	if g.NodeWeight(0) != 10 || g.EdgeWeight(0) != 7 {
		t.Fatal("weights not stored")
	}
	if g.MaxNodeWeight() != 10 || g.TotalNodeWeight() != 14 {
		t.Fatal("aggregate weights wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetNodeWeight(0) accepted non-positive weight")
		}
	}()
	g.SetNodeWeight(0, 0)
}

func TestCloneIndependentWeights(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	g := b.MustBuild()
	g.SetNodeWeight(2, 9)
	g.SetEdgeWeight(0, 3)
	c := g.Clone()
	c.SetNodeWeight(2, 5)
	c.SetEdgeWeight(0, 8)
	if g.NodeWeight(2) != 9 || g.EdgeWeight(0) != 3 {
		t.Fatal("Clone shares weight state with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	r := rng.New(1)
	tests := []struct {
		name    string
		g       *Graph
		wantN   int
		wantM   int // -1 means skip
		maxDeg  int // -1 means skip
		bipart  bool
		checkBi bool
	}{
		{"star", Star(6), 6, 5, 5, true, true},
		{"path", Path(5), 5, 4, 2, true, true},
		{"cycle even", Cycle(6), 6, 6, 2, true, true},
		{"cycle odd", Cycle(5), 5, 5, 2, false, true},
		{"complete", Complete(5), 5, 10, 4, false, true},
		{"grid", Grid(3, 4), 12, 17, -1, true, true},
		{"caterpillar", Caterpillar(4, 3), 16, 15, -1, true, true},
		{"gnp", GNP(30, 0.2, r), 30, -1, -1, false, false},
		{"tree", RandomTree(40, r), 40, 39, -1, true, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.g.N() != tc.wantN {
				t.Errorf("N = %d, want %d", tc.g.N(), tc.wantN)
			}
			if tc.wantM >= 0 && tc.g.M() != tc.wantM {
				t.Errorf("M = %d, want %d", tc.g.M(), tc.wantM)
			}
			if tc.maxDeg >= 0 && tc.g.MaxDegree() != tc.maxDeg {
				t.Errorf("MaxDegree = %d, want %d", tc.g.MaxDegree(), tc.maxDeg)
			}
			if tc.checkBi {
				if ok := bipartite(tc.g); ok != tc.bipart {
					t.Errorf("bipartite = %v, want %v", ok, tc.bipart)
				}
			}
		})
	}
}

// bfsColor 2-colors g breadth-first from every uncolored node and reports
// whether the coloring is proper, and how many searches it started (the
// number of connected components).
func bfsColor(g *Graph) (proper bool, components int) {
	side := make([]int, g.N())
	for i := range side {
		side[i] = -1
	}
	proper = true
	for s := 0; s < g.N(); s++ {
		if side[s] != -1 {
			continue
		}
		components++
		side[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if side[u] == -1 {
					side[u] = 1 - side[v]
					queue = append(queue, int(u))
				} else if side[u] == side[v] {
					proper = false
				}
			}
		}
	}
	return proper, components
}

func bipartite(g *Graph) bool {
	ok, _ := bfsColor(g)
	return ok
}

func connected(g *Graph) bool {
	_, c := bfsColor(g)
	return c <= 1
}

func TestRandomTreeConnected(t *testing.T) {
	r := rng.New(2)
	for n := 1; n <= 30; n++ {
		g := RandomTree(n, r)
		if g.M() != max(0, n-1) {
			t.Fatalf("tree on %d nodes has %d edges", n, g.M())
		}
		if !connected(g) {
			t.Fatalf("tree on %d nodes is not connected", n)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {16, 5}, {8, 0}} {
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): deg(%d)=%d", tc.n, tc.d, v, g.Degree(v))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Fatal("odd n·d accepted")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Fatal("d >= n accepted")
	}
}

func TestRandomBipartite(t *testing.T) {
	r := rng.New(4)
	g, side := RandomBipartite(10, 15, 0.3, r)
	if g.N() != 25 {
		t.Fatalf("N = %d", g.N())
	}
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			t.Fatalf("edge %v within one side", e)
		}
	}
	if !bipartite(g) {
		t.Fatal("RandomBipartite produced a non-bipartite graph")
	}
}

func TestLineGraphProperties(t *testing.T) {
	r := rng.New(5)
	// Property: |V(L)| = |E(G)|, deg_L(e={u,v}) = deg(u)+deg(v)-2, and node
	// weights of L are edge weights of G.
	check := func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		g := GNP(14, 0.3, rr)
		AssignUniformEdgeWeights(g, 50, rr)
		lg := g.LineGraph()
		if lg.N() != g.M() {
			return false
		}
		for id, e := range g.Edges() {
			if lg.Degree(id) != g.Degree(e.U)+g.Degree(e.V)-2 {
				return false
			}
			if lg.NodeWeight(id) != g.EdgeWeight(id) {
				return false
			}
		}
		return lg.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLineGraphOfTriangleIsTriangle(t *testing.T) {
	g := Cycle(3)
	lg := g.LineGraph()
	if lg.N() != 3 || lg.M() != 3 {
		t.Fatalf("L(K3): N=%d M=%d, want 3,3", lg.N(), lg.M())
	}
}

func TestIndependentSetPredicates(t *testing.T) {
	g := Path(4) // 0-1-2-3
	if !g.IsIndependentSet([]bool{true, false, true, false}) {
		t.Fatal("{0,2} should be independent")
	}
	if g.IsIndependentSet([]bool{true, true, false, false}) {
		t.Fatal("{0,1} should not be independent")
	}
	if !g.IsMaximalIndependentSet([]bool{false, true, false, true}) {
		t.Fatal("{1,3} should be a maximal IS")
	}
	if g.IsMaximalIndependentSet([]bool{true, false, false, false}) {
		t.Fatal("{0} is not maximal (3 uncovered)")
	}
	g.SetNodeWeight(2, 5)
	if got := g.SetWeight([]bool{false, false, true, true}); got != 6 {
		t.Fatalf("SetWeight = %d, want 6", got)
	}
}

func TestMatchingPredicates(t *testing.T) {
	g := Path(5) // edges 0:{0,1} 1:{1,2} 2:{2,3} 3:{3,4}
	if !g.IsMatching([]int{0, 2}) {
		t.Fatal("{01,23} should be a matching")
	}
	if g.IsMatching([]int{0, 1}) {
		t.Fatal("{01,12} shares node 1")
	}
	if !g.IsMaximalMatching([]int{1, 3}) {
		t.Fatal("{12,34} should be maximal")
	}
	if g.IsMaximalMatching([]int{0}) {
		t.Fatal("{01} is not maximal (edge 23 free)")
	}
	if g.IsMatching([]int{-1}) || g.IsMatching([]int{99}) {
		t.Fatal("out-of-range edge accepted")
	}
	g.SetEdgeWeight(1, 42)
	if g.MatchingWeight([]int{1, 3}) != 43 {
		t.Fatal("MatchingWeight wrong")
	}
	mate := g.MatchedMates([]int{1})
	if mate[1] != 2 || mate[2] != 1 || mate[0] != -1 {
		t.Fatalf("mates = %v", mate)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(7)
	g := GNP(20, 0.25, r)
	AssignUniformNodeWeights(g, 1000, r)
	AssignUniformEdgeWeights(g, 1000, r)

	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Decode(&buf, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d", h.N(), h.M(), g.N(), g.M())
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
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"missing weights", "3 0\n"},
		{"weight count", "3 0\n1 2\n"},
		{"non-positive weight", "2 0\n1 0\n"},
		{"missing edge", "2 1\n1 1\n"},
		{"self loop", "2 1\n1 1\n0 0 1\n"},
		{"dup edge", "2 2\n1 1\n0 1 1\n1 0 1\n"},
		{"bad edge weight", "2 1\n1 1\n0 1 -4\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewBufferString(tc.in), ReadOptions{}); err == nil {
				t.Fatalf("Decode(%q) succeeded, want error", tc.in)
			}
		})
	}
}
