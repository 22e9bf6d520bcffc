package agg

// Alloc-budget tests: the arena runtime's zero-allocation steady state is a
// contract, not a benchmark footnote. Each budget runs the same machine for
// a short and a long horizon and pins the allocation cost of the extra
// virtual rounds to (effectively) zero — arenas, pooled messages, and query
// buffers are all sized during the first rounds and reused, so additional
// rounds must not allocate. RunDirect goes further: every per-node buffer
// and RNG stream is carved from a run-wide slab, so its whole-run count does
// not grow with the graph either (TestRunDirectWholeRunAllocsFlat). The line
// runtime's exchange-folding memo still grows a few buffers per node, so its
// whole-run count is gated end to end by cmd/benchtab -compare instead.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/race"
	"repro/internal/rng"
	"repro/internal/simul"
)

// steadyStateBudget is the allowed allocations per extra virtual round for a
// whole run (all nodes together). The true value is zero; the fraction
// absorbs one-off growth that lands beyond the short horizon.
const steadyStateBudget = 0.5

func perRoundAllocs(t *testing.T, run func(rounds int)) float64 {
	t.Helper()
	const short, long = 4, 24
	a := testing.AllocsPerRun(5, func() { run(short) })
	b := testing.AllocsPerRun(5, func() { run(long) })
	return (b - a) / float64(long-short)
}

func allocBudgetGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.GNP(48, 0.15, rng.New(11))
	graph.AssignUniformEdgeWeights(g, 64, rng.New(12))
	if g.M() == 0 {
		t.Fatal("degenerate test graph")
	}
	return g
}

func TestRunDirectSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets only hold unraced")
	}
	g := allocBudgetGraph(t)
	per := perRoundAllocs(t, func(rounds int) {
		if _, err := RunDirect(g, simul.Config{Seed: 7}, func(v int) Machine {
			return &chaosMachine{rounds: rounds}
		}); err != nil {
			t.Fatal(err)
		}
	})
	if per > steadyStateBudget {
		t.Errorf("RunDirect allocates %.2f/round in steady state, budget %v", per, steadyStateBudget)
	}
}

func TestRunLineSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets only hold unraced")
	}
	g := allocBudgetGraph(t)
	per := perRoundAllocs(t, func(rounds int) {
		if _, err := RunLine(g, simul.Config{Seed: 7}, func(id int) Machine {
			return &chaosMachine{rounds: rounds}
		}); err != nil {
			t.Fatal(err)
		}
	})
	if per > steadyStateBudget {
		t.Errorf("RunLine allocates %.2f/round in steady state, budget %v", per, steadyStateBudget)
	}
}

func TestRunLineNaiveSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets only hold unraced")
	}
	g := allocBudgetGraph(t)
	per := perRoundAllocs(t, func(rounds int) {
		if _, err := RunLineNaive(g, simul.Config{Seed: 7, Model: simul.LOCAL}, func(id int) Machine {
			return &chaosMachine{rounds: rounds}
		}); err != nil {
			t.Fatal(err)
		}
	})
	// A naive virtual round spans ∆ real rounds, but the budget is still per
	// *virtual* round: relay queues and receive buckets are reused too.
	if per > steadyStateBudget {
		t.Errorf("RunLineNaive allocates %.2f/round in steady state, budget %v", per, steadyStateBudget)
	}
}

// floodMachine spreads the maximum initial key for six rounds, then halts
// reporting whether it holds a positive key. It keeps all state in its Data
// vector ([key, rounds left]), so one instance serves every node, and its
// output is a bool, which boxes without allocating: the run allocates
// nothing per node on the machine's behalf.
type floodMachine struct{}

var floodPlan = [1]Query{{Agg: Max, Value: Field(0)}}

func (floodMachine) Fields() int { return 2 }

func (floodMachine) Init(info *NodeInfo, data Data) {
	data[0] = int64(info.Rand.Intn(1 << 20))
	data[1] = 6
}

func (floodMachine) Queries(info *NodeInfo, t int, data Data, qs []*Query) []*Query {
	return AppendPlan(qs, floodPlan[:])
}

func (floodMachine) Update(info *NodeInfo, t int, data Data, results []int64) (bool, any) {
	data[0] = max(data[0], results[0])
	data[1]--
	return data[1] == 0, data[0] > 0
}

// TestRunDirectWholeRunAllocsFlat pins RunDirect's whole-run allocation
// count — arenas, slabs, stream arena, engine set-up, outputs — as equal at
// two graph sizes a hundredfold apart: nothing is allocated per node.
func TestRunDirectWholeRunAllocsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; budgets only hold unraced")
	}
	allocs := func(n int) float64 {
		g := graph.GNPSparse(n, 8/float64(n), rng.New(uint64(n)))
		return testing.AllocsPerRun(3, func() {
			if _, err := RunDirect(g, simul.Config{Seed: 5}, func(v int) Machine { return floodMachine{} }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(96), allocs(9600)
	if small != large {
		t.Errorf("RunDirect allocates %.0f times at n=96 but %.0f at n=9600; want equal", small, large)
	}
}
