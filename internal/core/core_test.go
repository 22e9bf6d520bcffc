package core

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

// ratioBoundIS fails the test if weight·∆ < OPT, i.e. the ∆-approximation
// guarantee is violated.
func ratioBoundIS(t *testing.T, g *graph.Graph, got int64, label string) {
	t.Helper()
	_, opt, err := exact.MaxWeightIndependentSet(g)
	if err != nil {
		t.Fatal(err)
	}
	delta := int64(g.MaxDegree())
	if delta == 0 {
		delta = 1
	}
	if got*delta < opt {
		t.Fatalf("%s: weight %d violates ∆-approximation (OPT=%d, ∆=%d)", label, got, opt, delta)
	}
	if got > opt {
		t.Fatalf("%s: weight %d exceeds OPT=%d — solver or validity bug", label, got, opt)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[int64]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for w, want := range cases {
		if got := layerOf(w); got != want {
			t.Errorf("layerOf(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestSequentialLocalRatioApproximation(t *testing.T) {
	r := rng.New(1)
	picks := map[string]PickIS{
		"greedy": GreedyPick,
		"single": SingleNodePick,
		"random": RandomMISPick(rng.New(42)),
	}
	for name, pick := range picks {
		name, pick := name, pick
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				g := graph.GNP(18, 0.25, r.Split(uint64(trial)))
				graph.AssignUniformNodeWeights(g, 50, r.Split(uint64(100+trial)))
				in := SequentialLocalRatio(g, pick)
				if !g.IsIndependentSet(in) {
					t.Fatalf("trial %d: output not independent", trial)
				}
				ratioBoundIS(t, g, g.SetWeight(in), name)
			}
		})
	}
}

func TestSequentialLocalRatioOnStar(t *testing.T) {
	// The §2.1 example: center heavier than any leaf but lighter than their
	// sum. The local-ratio algorithm must return a non-trivial set.
	g := graph.Star(5)
	g.SetNodeWeight(0, 10)
	for v := 1; v < 5; v++ {
		g.SetNodeWeight(v, 4)
	}
	in := SequentialLocalRatio(g, GreedyPick)
	if !g.IsIndependentSet(in) {
		t.Fatal("not independent")
	}
	w := g.SetWeight(in)
	// OPT = 16 (all leaves); ∆ = 4; guarantee ≥ 4.
	if w < 4 {
		t.Fatalf("weight %d below the ∆-approximation floor", w)
	}
}

// TestSequentialLocalRatioRejectsBrokenPicks: a selection rule that breaks
// the PickIS contract must panic, not silently void the approximation proof.
// The path 0-1-2 weighs 1, 5, 1, so the greedy first round ({0, 2}) leaves
// node 1 alive for a second round.
func TestSequentialLocalRatioRejectsBrokenPicks(t *testing.T) {
	g := graph.Path(3)
	g.SetNodeWeight(1, 5)
	fixed := func(u ...int) PickIS {
		return func(*graph.Graph, []bool, []int64) []int { return u }
	}
	// secondRound picks greedily once, then returns u.
	secondRound := func(u ...int) PickIS {
		calls := 0
		return func(g *graph.Graph, alive []bool, w []int64) []int {
			if calls++; calls == 1 {
				return GreedyPick(g, alive, w)
			}
			return u
		}
	}
	cases := []struct {
		name string
		pick PickIS
		want string
	}{
		{"adjacent", fixed(0, 1), "core: PickIS selected adjacent nodes 0 and 1"},
		{"adjacent, larger first", fixed(2, 1), "core: PickIS selected adjacent nodes 2 and 1"},
		{"dead", secondRound(0), "core: PickIS selected dead node 0"},
		{"twice", fixed(0, 2, 0), "core: PickIS selected node 0 twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic %v, want %q", got, tc.want)
				}
			}()
			SequentialLocalRatio(g, tc.pick)
		})
	}
	// The same instance with a sound rule runs through both rounds.
	if in := SequentialLocalRatio(g, secondRound(1)); !in[1] {
		t.Fatalf("second-round pick of node 1 not in the result %v", in)
	}
}

func TestNaiveSimultaneousFailsOnStar(t *testing.T) {
	// The motivating failure: naive simultaneous reduction selects nothing.
	g := graph.Star(5)
	g.SetNodeWeight(0, 10)
	for v := 1; v < 5; v++ {
		g.SetNodeWeight(v, 4)
	}
	in := NaiveSimultaneousLocalRatio(g)
	if g.SetWeight(in) != 0 {
		t.Fatalf("naive algorithm unexpectedly selected weight %d; the ablation premise broke", g.SetWeight(in))
	}
	// While Algorithm 2 on the same instance returns something.
	res, err := DistributedMaxIS(g, "luby", simul.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight < 4 {
		t.Fatalf("Algorithm 2 weight %d below floor on the star", res.Weight)
	}
}

func TestAlgorithm2Approximation(t *testing.T) {
	r := rng.New(2)
	for _, misName := range []string{"luby", "ghaffari", "greedyid"} {
		misName := misName
		t.Run(misName, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				g := graph.GNP(20, 0.2, r.Split(uint64(trial)))
				graph.AssignUniformNodeWeights(g, 64, r.Split(uint64(300+trial)))
				res, err := DistributedMaxIS(g, misName, simul.Config{Seed: uint64(trial)})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !g.IsIndependentSet(res.InSet) {
					t.Fatalf("trial %d: output not independent", trial)
				}
				if g.SetWeight(res.InSet) != res.Weight {
					t.Fatalf("trial %d: reported weight %d != actual", trial, res.Weight)
				}
				ratioBoundIS(t, g, res.Weight, misName)
			}
		})
	}
}

func TestAlgorithm2WindowScaling(t *testing.T) {
	// Theorem 2.3: windows ≤ log W + O(1); each window empties the topmost
	// weight layer.
	r := rng.New(3)
	for _, maxW := range []int64{1, 16, 1 << 12} {
		g := graph.GNP(48, 0.12, r.Split(uint64(maxW)))
		graph.AssignUniformNodeWeights(g, maxW, r.Split(uint64(maxW)+99))
		res, err := DistributedMaxIS(g, "luby", simul.Config{Seed: uint64(maxW)})
		if err != nil {
			t.Fatal(err)
		}
		logW := layerOf(maxW) + 1
		if int64(res.Windows) > 2*logW+3 {
			t.Errorf("W=%d: %d windows, want ≤ %d", maxW, res.Windows, 2*logW+3)
		}
	}
}

func TestAlgorithm2Congest(t *testing.T) {
	g := graph.GNP(64, 0.1, rng.New(4))
	graph.AssignUniformNodeWeights(g, 1000, rng.New(5))
	res, err := DistributedMaxIS(g, "luby", simul.Config{Seed: 6, Model: simul.CONGEST})
	if err != nil {
		t.Fatalf("CONGEST violation: %v", err)
	}
	if res.Metrics.BitBudget == 0 || res.Metrics.MaxMessageBits > res.Metrics.BitBudget {
		t.Fatalf("bit accounting broken: %+v", res.Metrics)
	}
}

func TestAlgorithm2DeterministicAcrossEngines(t *testing.T) {
	g := graph.GNP(30, 0.2, rng.New(7))
	graph.AssignUniformNodeWeights(g, 100, rng.New(8))
	a, err := DistributedMaxIS(g, "luby", simul.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DistributedMaxIS(g, "luby", simul.Config{Seed: 9, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatal("engines disagree on Algorithm 2 output")
		}
	}
}

func TestAlgorithm3Approximation(t *testing.T) {
	r := rng.New(10)
	for _, det := range []bool{false, true} {
		for trial := 0; trial < 8; trial++ {
			g := graph.GNP(20, 0.2, r.Split(uint64(trial)))
			graph.AssignUniformNodeWeights(g, 64, r.Split(uint64(700+trial)))
			res, err := ColoringMaxIS(g, det, simul.Config{Seed: uint64(trial)})
			if err != nil {
				t.Fatalf("det=%v trial %d: %v", det, trial, err)
			}
			if !g.IsIndependentSet(res.InSet) {
				t.Fatalf("det=%v trial %d: not independent", det, trial)
			}
			ratioBoundIS(t, g, res.Weight, "algorithm3")
		}
	}
}

func TestAlgorithm3FullyDeterministic(t *testing.T) {
	g := graph.GNP(25, 0.25, rng.New(11))
	graph.AssignUniformNodeWeights(g, 30, rng.New(12))
	a, err := ColoringMaxIS(g, true, simul.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ColoringMaxIS(g, true, simul.Config{Seed: 12345, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatal("deterministic Algorithm 3 output depends on the seed")
		}
	}
}

func TestAlgorithm3CycleScaling(t *testing.T) {
	// The removal stage runs one cycle per color: with a (∆+1)-coloring the
	// virtual rounds are O(∆), independent of n.
	r := rng.New(13)
	for _, d := range []int{2, 4, 8} {
		g, err := graph.RandomRegular(60, d, r.Split(uint64(d)))
		if err != nil {
			t.Fatal(err)
		}
		graph.AssignUniformNodeWeights(g, 1000, r.Split(uint64(d)+5))
		res, err := ColoringMaxIS(g, false, simul.Config{Seed: uint64(d)})
		if err != nil {
			t.Fatal(err)
		}
		// 2 rounds per color cycle + addition cascade; generous constant.
		if res.VirtualRounds > 8*(d+2) {
			t.Errorf("∆=%d: %d virtual rounds, want O(∆)", d, res.VirtualRounds)
		}
	}
}

func TestMWM2Approximation(t *testing.T) {
	r := rng.New(14)
	for trial := 0; trial < 8; trial++ {
		g := graph.GNP(14, 0.3, r.Split(uint64(trial)))
		if g.M() == 0 {
			continue
		}
		graph.AssignUniformEdgeWeights(g, 40, r.Split(uint64(800+trial)))
		_, opt, err := exact.MaxWeightMatchingBrute(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"alg2", "alg3"} {
			var got *MatchingResult
			if algo == "alg2" {
				got, err = DistributedMWM2(g, "luby", simul.Config{Seed: uint64(trial)})
			} else {
				got, err = ColoringMWM2(g, simul.Config{Seed: uint64(trial)})
			}
			if err != nil {
				t.Fatalf("%s trial %d: %v", algo, trial, err)
			}
			if !g.IsMatching(got.Edges) {
				t.Fatalf("%s trial %d: output not a matching", algo, trial)
			}
			if g.MatchingWeight(got.Edges) != got.Weight {
				t.Fatalf("%s trial %d: weight mismatch", algo, trial)
			}
			if 2*got.Weight < opt {
				t.Fatalf("%s trial %d: weight %d violates 2-approximation (OPT=%d)", algo, trial, got.Weight, opt)
			}
		}
	}
}

func TestMWM2MatchesExplicitLineGraphRun(t *testing.T) {
	// Theorem 2.9 + 2.8 end to end: Algorithm 2 through the line-graph
	// runtime must equal Algorithm 2 run directly on an explicit L(G).
	g := graph.GNP(12, 0.3, rng.New(15))
	graph.AssignUniformEdgeWeights(g, 20, rng.New(16))
	mwm, err := DistributedMWM2(g, "luby", simul.Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	lg := g.LineGraph()
	direct, err := DistributedMaxIS(lg, "luby", simul.Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	chosen := make(map[int]bool, len(mwm.Edges))
	for _, e := range mwm.Edges {
		chosen[e] = true
	}
	for e := 0; e < g.M(); e++ {
		if direct.InSet[e] != chosen[e] {
			t.Fatalf("edge %d: line runtime chose %v, explicit L(G) chose %v", e, chosen[e], direct.InSet[e])
		}
	}
}

func TestMWM2Congest(t *testing.T) {
	g := graph.GNP(32, 0.15, rng.New(18))
	graph.AssignUniformEdgeWeights(g, 500, rng.New(19))
	if _, err := DistributedMWM2(g, "luby", simul.Config{Seed: 20, Model: simul.CONGEST}); err != nil {
		t.Fatalf("MWM on L(G) violated CONGEST: %v", err)
	}
}

func TestMWM2OnBipartiteAgainstHungarian(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 6; trial++ {
		g, side := graph.RandomBipartite(10, 10, 0.3, r.Split(uint64(trial)))
		if g.M() == 0 {
			continue
		}
		graph.AssignUniformEdgeWeights(g, 100, r.Split(uint64(900+trial)))
		_, opt, err := exact.MaxWeightBipartiteMatching(g, side)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DistributedMWM2(g, "luby", simul.Config{Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if 2*got.Weight < opt {
			t.Fatalf("trial %d: 2·%d < OPT=%d", trial, got.Weight, opt)
		}
	}
}

func TestDistributedMaxISUnknownMIS(t *testing.T) {
	if _, err := DistributedMaxIS(graph.Path(3), "nope", simul.Config{}); err == nil {
		t.Fatal("unknown MIS black box accepted")
	}
	if _, err := DistributedMWM2(graph.Path(3), "nope", simul.Config{}); err == nil {
		t.Fatal("unknown MIS black box accepted for matching")
	}
}

func TestAlgorithm2OnUnitWeights(t *testing.T) {
	// All-equal weights collapse to a single layer: the algorithm becomes
	// "MIS then add" and must produce a maximal independent set.
	g := graph.GNP(30, 0.2, rng.New(22))
	res, err := DistributedMaxIS(g, "luby", simul.Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsIndependentSet(res.InSet) {
		t.Fatal("not independent")
	}
	ratioBoundIS(t, g, res.Weight, "unit weights")
}

func TestAlgorithm2Structured(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"star":     graph.Star(16),
		"path":     graph.Path(20),
		"cycle":    graph.Cycle(15),
		"complete": graph.Complete(10),
		"edgeless": graph.NewBuilder(8).MustBuild(),
		"single":   graph.NewBuilder(1).MustBuild(),
	} {
		res, err := DistributedMaxIS(g, "luby", simul.Config{Seed: 24})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.IsIndependentSet(res.InSet) {
			t.Fatalf("%s: not independent", name)
		}
		if g.N() <= 64 {
			ratioBoundIS(t, g, res.Weight, name)
		}
	}
}
