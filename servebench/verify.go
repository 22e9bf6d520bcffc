package main

import (
	"fmt"
	"slices"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
)

// refGraph is one generated input with the lower bounds on OPT that the
// paper's worst-case ratios are checked against, computed once in set-up.
type refGraph struct {
	g *graph.Graph
	// delta is the maximum degree (at least 1); greedyIS and greedyM are the
	// weights of exact.GreedyWeightIS and exact.GreedyMatching, both at most
	// OPT of their problem.
	delta    int64
	greedyIS int64
	greedyM  int64
}

func newRefGraph(g *graph.Graph) *refGraph {
	return &refGraph{
		g:        g,
		delta:    int64(max(g.MaxDegree(), 1)),
		greedyIS: g.SetWeight(exact.GreedyWeightIS(g)),
		greedyM:  g.MatchingWeight(exact.GreedyMatching(g)),
	}
}

// verify checks one delivered answer against the graph it was computed on:
// the answer must be an independent set or a matching of the right kind for
// algo, its reported weight and size must match a recomputation, and for
// the algorithms with a worst-case guarantee the weight must reach the
// paper's ratio of a lower bound on OPT (a necessary condition: Δ for
// maxis and maxis-det, Thm 2.3; 2 for mwm2 and mwm2-det, Thm 2.10).
func (r *refGraph) verify(algo string, res *httpapi.JobResult) error {
	if res == nil {
		return fmt.Errorf("%s: no result", algo)
	}
	spec, ok := registry.Get(algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if res.Kind != spec.Kind.String() {
		return fmt.Errorf("%s: result kind %q, want %q", algo, res.Kind, spec.Kind)
	}
	switch spec.Kind {
	case registry.IS, registry.NMIS:
		if len(res.InSet) != r.g.N() {
			return fmt.Errorf("%s: set vector has %d entries for %d nodes", algo, len(res.InSet), r.g.N())
		}
		if !r.g.IsIndependentSet(res.InSet) {
			return fmt.Errorf("%s: answer is not an independent set", algo)
		}
		if w := r.g.SetWeight(res.InSet); w != res.Weight {
			return fmt.Errorf("%s: reported weight %d, recomputed %d", algo, res.Weight, w)
		}
		if size := countTrue(res.InSet); size != res.Size {
			return fmt.Errorf("%s: reported size %d, recomputed %d", algo, res.Size, size)
		}
		if (algo == "maxis" || algo == "maxis-det") && res.Weight*r.delta < r.greedyIS {
			return fmt.Errorf("%s: weight %d is below greedy %d / Δ %d", algo, res.Weight, r.greedyIS, r.delta)
		}
	case registry.Matching:
		if !r.g.IsMatching(res.Edges) {
			return fmt.Errorf("%s: answer is not a matching", algo)
		}
		if w := r.g.MatchingWeight(res.Edges); w != res.Weight {
			return fmt.Errorf("%s: reported weight %d, recomputed %d", algo, res.Weight, w)
		}
		if len(res.Edges) != res.Size {
			return fmt.Errorf("%s: reported size %d, recomputed %d", algo, res.Size, len(res.Edges))
		}
		if (algo == "mwm2" || algo == "mwm2-det") && 2*res.Weight < r.greedyM {
			return fmt.Errorf("%s: weight %d is below greedy %d / 2", algo, res.Weight, r.greedyM)
		}
	}
	return nil
}

// replay runs the cell directly through registry.Spec.Run on the harness's
// own copy of the graph and reports whether the served answer equals it
// (cluster ≡ single node).
func (r *refGraph) replay(algo string, params *httpapi.ParamsRequest, served *httpapi.JobResult) error {
	spec, ok := registry.Get(algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	var p registry.Params
	if params != nil {
		p = registry.Params{Eps: params.Eps, K: params.K, Delta: params.Delta, MIS: params.MIS,
			Seed: params.Seed, DeterministicColoring: params.DetColoring}
	}
	want, err := spec.Run(r.g, p)
	if err != nil {
		return fmt.Errorf("%s direct run: %v", algo, err)
	}
	switch {
	case served == nil:
		return fmt.Errorf("%s: no served result", algo)
	case served.Weight != want.Weight || served.Cost != want.Cost:
		return fmt.Errorf("%s seed %d: served weight %d cost %+v, direct weight %d cost %+v",
			algo, p.Seed, served.Weight, served.Cost, want.Weight, want.Cost)
	case !slices.Equal(served.InSet, want.InSet) || !slices.Equal(served.Edges, want.Edges):
		return fmt.Errorf("%s seed %d: served answer differs from the direct run", algo, p.Seed)
	}
	return nil
}

func countTrue(xs []bool) int {
	n := 0
	for _, x := range xs {
		if x {
			n++
		}
	}
	return n
}
