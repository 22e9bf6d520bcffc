package mis

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

var allAlgos = []string{Luby, Ghaffari, GreedyID}

func TestMISCorrectOnRandomGraphs(t *testing.T) {
	r := rng.New(1)
	for _, name := range allAlgos {
		name := name
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 15; trial++ {
				g := graph.GNP(40, 0.15, r.Split(uint64(trial)))
				res, err := Compute(g, name, simul.Config{Seed: uint64(trial)})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !g.IsMaximalIndependentSet(res.InSet) {
					t.Fatalf("trial %d: output is not a maximal independent set", trial)
				}
			}
		})
	}
}

func TestMISOnStructuredGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":     graph.Star(20),
		"path":     graph.Path(25),
		"cycle":    graph.Cycle(24),
		"complete": graph.Complete(12),
		"edgeless": graph.NewBuilder(10).MustBuild(),
		"single":   graph.NewBuilder(1).MustBuild(),
	}
	for _, name := range allAlgos {
		for gname, g := range graphs {
			res, err := Compute(g, name, simul.Config{Seed: 7})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, gname, err)
			}
			if !g.IsMaximalIndependentSet(res.InSet) {
				t.Fatalf("%s on %s: not a maximal IS", name, gname)
			}
		}
	}
	// Sharp structural checks.
	star := graphs["star"]
	res, _ := Compute(star, Luby, simul.Config{Seed: 3})
	count := 0
	for _, in := range res.InSet {
		if in {
			count++
		}
	}
	if count != 1 && count != 19 {
		t.Fatalf("star MIS has %d members, want 1 (center) or 19 (leaves)", count)
	}
	comp, _ := Compute(graphs["complete"], Ghaffari, simul.Config{Seed: 3})
	count = 0
	for _, in := range comp.InSet {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("complete-graph MIS has %d members, want 1", count)
	}
}

func TestGreedyIDPicksLowestIDs(t *testing.T) {
	// Deterministic: on a path 0-1-2-3-4, greedy-by-ID yields {0,2,4}.
	g := graph.Path(5)
	res, err := Compute(g, GreedyID, simul.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false, true}
	for v, w := range want {
		if res.InSet[v] != w {
			t.Fatalf("InSet = %v, want %v", res.InSet, want)
		}
	}
}

func TestMISOnLineGraphIsMaximalMatching(t *testing.T) {
	r := rng.New(2)
	for _, name := range allAlgos {
		for trial := 0; trial < 8; trial++ {
			g := graph.GNP(18, 0.25, r.Split(uint64(trial)))
			if g.M() == 0 {
				continue
			}
			res, err := ComputeOnLine(g, name, simul.Config{Seed: uint64(50 + trial)})
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			var matching []int
			for id, in := range res.InSet {
				if in {
					matching = append(matching, id)
				}
			}
			if !g.IsMaximalMatching(matching) {
				t.Fatalf("%s trial %d: MIS of L(G) is not a maximal matching", name, trial)
			}
		}
	}
}

func TestMISRoundScaling(t *testing.T) {
	// Luby and Ghaffari must finish in O(log n)-ish rounds; far under the
	// window budget. Use a generous explicit constant as the regression line.
	r := rng.New(3)
	for _, name := range []string{Luby, Ghaffari} {
		for _, n := range []int{32, 128, 512} {
			g := graph.GNP(n, 8.0/float64(n), r.Split(uint64(n)))
			res, err := Compute(g, name, simul.Config{Seed: uint64(n)})
			if err != nil {
				t.Fatal(err)
			}
			bound := 12 * (ceilLog2(n+1) + 4)
			if res.VirtualRounds > bound {
				t.Errorf("%s on n=%d took %d virtual rounds (> %d)", name, n, res.VirtualRounds, bound)
			}
		}
	}
}

func TestMISDeterministicGivenSeed(t *testing.T) {
	g := graph.GNP(30, 0.2, rng.New(4))
	a, err := Compute(g, Luby, simul.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(g, Luby, simul.Config{Seed: 9, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatal("sequential and parallel engines disagree for the same seed")
		}
	}
}

func TestMISRunsInCongest(t *testing.T) {
	// The whole point of the aggregate formulation: O(log n)-bit messages.
	g := graph.GNP(64, 0.15, rng.New(5))
	for _, name := range allAlgos {
		res, err := Compute(g, name, simul.Config{Seed: 11, Model: simul.CONGEST})
		if err != nil {
			t.Fatalf("%s violated CONGEST: %v", name, err)
		}
		if res.Metrics.BitBudget == 0 {
			t.Fatal("CONGEST budget not enforced")
		}
	}
	// And on the line graph through the Theorem 2.8 simulation.
	for _, name := range allAlgos {
		if _, err := ComputeOnLine(g, name, simul.Config{Seed: 11, Model: simul.CONGEST}); err != nil {
			t.Fatalf("%s on L(G) violated CONGEST: %v", name, err)
		}
	}
}

func TestFactoryRejectsUnknown(t *testing.T) {
	if _, err := Factory("quantum"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := NewMachine(""); err == nil {
		t.Fatal("empty algorithm accepted")
	}
}

func TestSubWindowBudgets(t *testing.T) {
	for _, name := range allAlgos {
		f, err := Factory(name)
		if err != nil {
			t.Fatal(err)
		}
		s := f(0)
		if s.WindowRounds(1024) <= 0 || s.Fields() <= 0 {
			t.Fatalf("%s: degenerate window or fields", name)
		}
		if s.WindowRounds(1<<20) < s.WindowRounds(4) {
			t.Fatalf("%s: window budget not monotone in n", name)
		}
	}
}
