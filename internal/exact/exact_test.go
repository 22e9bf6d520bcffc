package exact

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// enumerateIS computes the exact maximum weight independent set by testing
// all 2ⁿ subsets; the trusted tiny-n oracle for the cleverer solvers.
func enumerateIS(g *graph.Graph) int64 {
	n := g.N()
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		in := make([]bool, n)
		for v := 0; v < n; v++ {
			in[v] = mask&(1<<v) != 0
		}
		if !g.IsIndependentSet(in) {
			continue
		}
		if w := g.SetWeight(in); w > best {
			best = w
		}
	}
	return best
}

func TestBlossomKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path4", graph.Path(4), 2},
		{"path5", graph.Path(5), 2},
		{"cycle5", graph.Cycle(5), 2},
		{"cycle6", graph.Cycle(6), 3},
		{"complete4", graph.Complete(4), 2},
		{"complete7", graph.Complete(7), 3},
		{"star9", graph.Star(9), 1},
		{"single edge", graph.Path(2), 1},
		{"edgeless", graph.NewBuilder(5).MustBuild(), 0},
		{"grid3x3", graph.Grid(3, 3), 4},
		{"petersen", petersen(), 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := MaxCardinalityMatching(tc.g)
			if !tc.g.IsMatching(m) {
				t.Fatal("output is not a matching")
			}
			if len(m) != tc.want {
				t.Fatalf("|M| = %d, want %d", len(m), tc.want)
			}
		})
	}
}

// petersen builds the Petersen graph, whose maximum matching is perfect —
// the classic stress test for blossom contraction.
func petersen() *graph.Graph {
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.MustAddEdge(i, (i+1)%5)     // outer C5
		b.MustAddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.MustAddEdge(i, 5+i)         // spokes
	}
	return b.MustBuild()
}

func TestBlossomMatchesBruteForceCardinality(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(12) // ≤ 15 nodes: DP feasible
		g := graph.GNP(n, 0.3, r.Split(uint64(trial)))
		m := MaxCardinalityMatching(g)
		if !g.IsMatching(m) {
			t.Fatal("blossom output not a matching")
		}
		_, bruteW, err := MaxWeightMatchingBrute(g) // unit weights = cardinality
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(m)) != bruteW {
			t.Fatalf("trial %d: blossom %d vs brute %d edges", trial, len(m), bruteW)
		}
	}
}

func TestBruteMatchingWeighted(t *testing.T) {
	// Path with weights where the heavy middle edge beats the two outer ones
	// combined, and vice versa.
	g := graph.Path(4)
	g.SetEdgeWeight(0, 3)
	g.SetEdgeWeight(1, 10)
	g.SetEdgeWeight(2, 4)
	m, w, err := MaxWeightMatchingBrute(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 10 || len(m) != 1 || m[0] != 1 {
		t.Fatalf("m=%v w=%d, want middle edge weight 10", m, w)
	}
	g.SetEdgeWeight(1, 6)
	_, w, err = MaxWeightMatchingBrute(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 7 {
		t.Fatalf("w=%d, want 7 (outer edges)", w)
	}
}

func TestBruteMatchingRejectsLargeGraphs(t *testing.T) {
	if _, _, err := MaxWeightMatchingBrute(graph.NewBuilder(25).MustBuild()); err == nil {
		t.Fatal("accepted 25 nodes")
	}
}

func TestHungarianAgainstBrute(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 40; trial++ {
		nl, nr := 2+r.Intn(5), 2+r.Intn(5)
		g, side := graph.RandomBipartite(nl, nr, 0.5, r.Split(uint64(trial)))
		graph.AssignUniformEdgeWeights(g, 50, r.Split(uint64(1000+trial)))
		m, w, err := MaxWeightBipartiteMatching(g, side)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsMatching(m) {
			t.Fatal("hungarian output not a matching")
		}
		if got := g.MatchingWeight(m); got != w {
			t.Fatalf("reported weight %d != recomputed %d", w, got)
		}
		_, bruteW, err := MaxWeightMatchingBrute(g)
		if err != nil {
			t.Fatal(err)
		}
		if w != bruteW {
			t.Fatalf("trial %d: hungarian %d vs brute %d", trial, w, bruteW)
		}
	}
}

func TestHungarianRejectsNonBipartite(t *testing.T) {
	g := graph.Cycle(3)
	if _, _, err := MaxWeightBipartiteMatching(g, []int{0, 1, 0}); err == nil {
		t.Fatal("accepted odd cycle")
	}
	if _, _, err := MaxWeightBipartiteMatching(g, []int{0, 1, 7}); err == nil {
		t.Fatal("accepted invalid side value")
	}
}

func TestMaxWeightISAgainstEnumeration(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(10)
		g := graph.GNP(n, 0.35, r.Split(uint64(trial)))
		graph.AssignUniformNodeWeights(g, 20, r.Split(uint64(500+trial)))
		in, w, err := MaxWeightIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsIndependentSet(in) {
			t.Fatal("B&B output not independent")
		}
		if got := g.SetWeight(in); got != w {
			t.Fatalf("reported %d != recomputed %d", w, got)
		}
		if want := enumerateIS(g); w != want {
			t.Fatalf("trial %d: B&B %d vs enumeration %d", trial, w, want)
		}
	}
}

func TestMaxWeightISRejectsLarge(t *testing.T) {
	if _, _, err := MaxWeightIndependentSet(graph.NewBuilder(65).MustBuild()); err == nil {
		t.Fatal("accepted 65 nodes")
	}
}

func TestGreedyBaselinesValid(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		g := graph.GNP(25, 0.2, r.Split(uint64(trial)))
		graph.AssignUniformNodeWeights(g, 40, r.Split(uint64(50+trial)))
		graph.AssignUniformEdgeWeights(g, 40, r.Split(uint64(99+trial)))

		if m := GreedyMatching(g); !g.IsMaximalMatching(m) {
			t.Fatal("greedy matching not maximal")
		}
		if in := GreedyWeightIS(g); !g.IsMaximalIndependentSet(in) {
			t.Fatal("weight greedy IS not a maximal IS")
		}
	}
}

func TestGreedyMatchingIsHalfOptimal(t *testing.T) {
	// The classical guarantee: greedy weight ≥ OPT/2.
	r := rng.New(6)
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(12)
		g := graph.GNP(n, 0.4, r.Split(uint64(trial)))
		graph.AssignUniformEdgeWeights(g, 100, r.Split(uint64(77+trial)))
		_, opt, err := MaxWeightMatchingBrute(g)
		if err != nil {
			t.Fatal(err)
		}
		got := g.MatchingWeight(GreedyMatching(g))
		if 2*got < opt {
			t.Fatalf("greedy %d < OPT/2 (OPT=%d)", got, opt)
		}
	}
}
