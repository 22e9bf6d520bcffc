package registry

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestMaxISWithinDeltaOfBipartiteOptimum asserts Theorem 2.3's ratio for
// both served MaxIS algorithms at n = 1000, far past internal/exact's reach:
// on weighted random bipartite graphs the optimum comes exactly from flow's
// König min-cut reduction, and every answer must be an independent set
// whose weight w satisfies w·Δ ≥ OPT.
func TestMaxISWithinDeltaOfBipartiteOptimum(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, side := graph.RandomBipartite(500, 500, 0.01, rng.New(seed))
		graph.AssignUniformNodeWeights(g, 1<<16, rng.New(100+seed))
		_, opt, err := flow.MaxWeightBipartiteIS(g, side)
		if err != nil {
			t.Fatal(err)
		}
		delta := int64(g.MaxDegree())
		for _, name := range []string{"maxis", "maxis-det"} {
			spec, ok := Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			res, err := spec.Run(g, Params{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !g.IsIndependentSet(res.InSet) {
				t.Fatalf("%s seed %d: answer is not an independent set", name, seed)
			}
			w := g.SetWeight(res.InSet)
			if w*delta < opt {
				t.Errorf("%s seed %d: weight %d · Δ %d < OPT %d", name, seed, w, delta, opt)
			}
			t.Logf("%s seed %d: OPT/w = %.3f, Δ = %d", name, seed, float64(opt)/float64(w), delta)
		}
	}
}
