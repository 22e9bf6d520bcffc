package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
)

// served runs algo on g directly and renders the result as it arrives on
// the wire.
func served(t *testing.T, g *graph.Graph, algo string) *httpapi.JobResult {
	t.Helper()
	spec, ok := registry.Get(algo)
	if !ok {
		t.Fatalf("no algorithm %s", algo)
	}
	res, err := spec.Run(g, registry.Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &httpapi.JobResult{Kind: res.Kind.String(), Size: res.Size(), Weight: res.Weight,
		InSet: res.InSet, Edges: res.Edges, Cost: res.Cost}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := generate("gnp", registry.GenParams{N: 40, P: 0.15, Seed: 11, MaxW: 64})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVerifierAcceptsServedAnswers(t *testing.T) {
	ref := newRefGraph(testGraph(t))
	for _, algo := range append(slices.Clone(heavyAlgos), interactiveAlgos...) {
		if err := ref.verify(algo, served(t, ref.g, algo)); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestVerifierRejectsBrokenAnswers(t *testing.T) {
	ref := newRefGraph(testGraph(t))

	flipped := served(t, ref.g, "maxis")
	flipped.InSet = slices.Clone(flipped.InSet)
	flipped.InSet[7] = !flipped.InSet[7]
	if err := ref.verify("maxis", flipped); err == nil {
		t.Error("a flipped InSet bit passed")
	}

	inflated := served(t, ref.g, "mwm2")
	inflated.Weight++
	if err := ref.verify("mwm2", inflated); err == nil {
		t.Error("an inflated weight passed")
	}

	// Two edges sharing an endpoint, with a matching weight and size so
	// only the structural check can catch them.
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	path := b.MustBuild()
	shared := &httpapi.JobResult{Kind: "matching", Size: 2, Edges: []int{0, 1},
		Weight: path.MatchingWeight([]int{0, 1})}
	err := newRefGraph(path).verify("proposal", shared)
	if err == nil || !strings.Contains(err.Error(), "not a matching") {
		t.Errorf("a matching with a shared endpoint: %v", err)
	}
}

func TestVerifierChecksPaperRatio(t *testing.T) {
	// A star whose centre outweighs the leaves: the set {one leaf} is
	// independent but far below greedy/Δ.
	b := graph.NewBuilder(5)
	for v := 1; v < 5; v++ {
		b.MustAddEdge(0, v)
	}
	g := b.MustBuild()
	g.SetNodeWeight(0, 1000)
	ref := newRefGraph(g)
	low := &httpapi.JobResult{Kind: "is", Size: 1, InSet: []bool{false, true, false, false, false},
		Weight: g.NodeWeight(1)}
	if err := ref.verify("maxis", low); err == nil {
		t.Error("an answer below greedy/Δ passed the maxis ratio check")
	}
	if err := ref.verify("nmis", &httpapi.JobResult{Kind: "nmis", Size: 1, InSet: low.InSet, Weight: low.Weight}); err != nil {
		t.Errorf("nmis has no ratio to check: %v", err)
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	ref := newRefGraph(testGraph(t))
	res := served(t, ref.g, "fastmcm")
	params := &httpapi.ParamsRequest{Seed: 3}
	if err := ref.replay("fastmcm", params, res); err != nil {
		t.Fatalf("identical run: %v", err)
	}
	other := *res
	other.Cost.Messages++
	if err := ref.replay("fastmcm", params, &other); err == nil {
		t.Error("a different cost passed the replay")
	}
}
