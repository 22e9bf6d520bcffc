package hypergraph

import (
	"testing"

	"repro/internal/race"
	"repro/internal/rng"
)

func TestAddEdgeValidation(t *testing.T) {
	h := New(5, 3)
	if _, err := h.AddEdge(nil); err == nil {
		t.Fatal("empty edge accepted")
	}
	if _, err := h.AddEdge([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("over-rank edge accepted")
	}
	if _, err := h.AddEdge([]int{0, 5, 1}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := h.AddEdge([]int{0, 1, 1}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	id, err := h.AddEdge([]int{2, 0, 4})
	if err != nil || id != 0 {
		t.Fatalf("valid edge rejected: %v", err)
	}
	got := h.Edge(0)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("edge not stored sorted: %v", got)
	}
}

func TestIsMatching(t *testing.T) {
	h := New(6, 2)
	a, _ := h.AddEdge([]int{0, 1})
	b, _ := h.AddEdge([]int{2, 3})
	c, _ := h.AddEdge([]int{1, 2})
	if !h.IsMatching([]int{a, b}) {
		t.Fatal("disjoint edges rejected")
	}
	if h.IsMatching([]int{a, c}) {
		t.Fatal("overlapping edges accepted")
	}
	if h.IsMatching([]int{99}) {
		t.Fatal("out-of-range edge accepted")
	}
}

// randomHypergraph builds a hypergraph with m random edges of size ≤ rank.
func randomHypergraph(n, m, rank int, r *rng.Stream) *Hypergraph {
	h := New(n, rank)
	for i := 0; i < m; i++ {
		size := 1 + r.Intn(rank)
		seen := map[int]bool{}
		var nodes []int
		for len(nodes) < size {
			v := r.Intn(n)
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
		if _, err := h.AddEdge(nodes); err != nil {
			panic(err)
		}
	}
	return h
}

func TestNMMProducesMaximalMatchingAmongActive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 15; trial++ {
		h := randomHypergraph(40, 60, 4, r.Split(uint64(trial)))
		res, err := h.NearlyMaximalMatching(Params{K: 2, Delta: 0.1}, r.Split(uint64(1000+trial)))
		if err != nil {
			t.Fatal(err)
		}
		if !h.IsMatching(res.Matching) {
			t.Fatalf("trial %d: output overlaps", trial)
		}
		// Lemma B.3 invariant: no hyperedge has all nodes active and no
		// intersection with the matching.
		matchedNode := make(map[int]bool)
		for _, id := range res.Matching {
			for _, v := range h.Edge(id) {
				matchedNode[v] = true
			}
		}
		for id := 0; id < h.M(); id++ {
			blockedOrDead := false
			for _, v := range h.Edge(id) {
				if res.Deactivated[v] || matchedNode[v] {
					blockedOrDead = true
					break
				}
			}
			if !blockedOrDead {
				t.Fatalf("trial %d: hyperedge %d fully active and unmatched", trial, id)
			}
		}
	}
}

func TestNMMDeactivationRate(t *testing.T) {
	const delta = 0.1
	r := rng.New(2)
	total, dead := 0, 0
	for trial := 0; trial < 10; trial++ {
		h := randomHypergraph(60, 90, 3, r.Split(uint64(trial)))
		res, err := h.NearlyMaximalMatching(Params{K: 2, Delta: delta}, r.Split(uint64(500+trial)))
		if err != nil {
			t.Fatal(err)
		}
		total += h.N()
		for _, d := range res.Deactivated {
			if d {
				dead++
			}
		}
	}
	if frac := float64(dead) / float64(total); frac > 3*delta {
		t.Fatalf("deactivated fraction %.3f exceeds 3δ", frac)
	}
}

func TestNMMIterationsWithinBudget(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 8; trial++ {
		h := randomHypergraph(30, 50, 3, r.Split(uint64(trial)))
		res, err := h.NearlyMaximalMatching(Params{K: 2, Delta: 0.05}, r.Split(uint64(200+trial)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 4*res.Budget {
			t.Fatalf("trial %d: %d iterations vs budget %d", trial, res.Iterations, res.Budget)
		}
	}
}

func TestNMMParamValidation(t *testing.T) {
	h := New(3, 2)
	r := rng.New(4)
	if _, err := h.NearlyMaximalMatching(Params{K: 1, Delta: 0.1}, r); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := h.NearlyMaximalMatching(Params{K: 2, Delta: 0}, r); err == nil {
		t.Fatal("δ=0 accepted")
	}
}

func TestNMMEmptyHypergraph(t *testing.T) {
	h := New(5, 3)
	res, err := h.NearlyMaximalMatching(Params{K: 2, Delta: 0.1}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matching) != 0 || res.Iterations != 0 {
		t.Fatalf("unexpected work on empty hypergraph: %+v", res)
	}
}

func TestNMMRankOne(t *testing.T) {
	// Rank-1 hyperedges never intersect each other unless they share the
	// node; all singletons on distinct nodes must be matched.
	h := New(4, 1)
	for v := 0; v < 4; v++ {
		if _, err := h.AddEdge([]int{v}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.NearlyMaximalMatching(Params{K: 2, Delta: 0.1}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matching) != 4 {
		t.Fatalf("matched %d singletons, want 4", len(res.Matching))
	}
}

// TestNMMAllocationsRepeat pins that a run's allocation count depends only
// on its input: benchtab's perf gate compares allocs_per_run for a fixed
// (n, trials, seed) against a committed baseline, so the oneeps count it
// reports must not vary from run to run.
func TestNMMAllocationsRepeat(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	h := randomHypergraph(60, 240, 4, rng.New(7))
	run := func() {
		if _, err := h.NearlyMaximalMatching(Params{K: 2, Delta: 0.1}, rng.New(11)); err != nil {
			t.Fatal(err)
		}
	}
	first := testing.AllocsPerRun(1, run)
	for i := 1; i < 20; i++ {
		if got := testing.AllocsPerRun(1, run); got != first {
			t.Fatalf("run %d made %v allocations, run 0 made %v", i, got, first)
		}
	}
}
