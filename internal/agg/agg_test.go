package agg

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

func TestAggregateLaws(t *testing.T) {
	aggs := []Aggregate{Sum, Min, Max, And, Or, BitOr}
	for _, a := range aggs {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			// Associativity and commutativity on bounded values (bounded so
			// Sum cannot overflow during the property check).
			assocComm := func(x, y, z int32) bool {
				xv, yv, zv := int64(x), int64(y), int64(z)
				if a.Join(xv, yv) != a.Join(yv, xv) {
					return false
				}
				return a.Join(a.Join(xv, yv), zv) == a.Join(xv, a.Join(yv, zv))
			}
			if err := quick.Check(assocComm, nil); err != nil {
				t.Error(err)
			}
			identity := func(x int32) bool {
				xv := normalize(a, int64(x))
				return a.Join(a.Identity(), xv) == xv && a.Join(xv, a.Identity()) == xv
			}
			if err := quick.Check(identity, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// normalize maps arbitrary ints into the domain of Boolean aggregates, whose
// identity law only holds for canonical 0/1 values.
func normalize(a Aggregate, x int64) int64 {
	if a == And || a == Or {
		if x != 0 {
			return 1
		}
		return 0
	}
	return x
}

func TestQueryOrderInvariance(t *testing.T) {
	// Definition 2.4: f(x₁..xₙ) = f(x_π(1)..x_π(n)) for any permutation π.
	r := rng.New(1)
	for _, a := range []Aggregate{Sum, Min, Max, And, Or} {
		q := Query{Agg: a, Value: Field(0)}
		data := make([]Data, 9)
		for i := range data {
			data[i] = Data{int64(r.Intn(5))}
		}
		want := q.Eval(data)
		for trial := 0; trial < 20; trial++ {
			perm := r.Perm(len(data))
			shuffled := make([]Data, len(data))
			for i, p := range perm {
				shuffled[i] = data[p]
			}
			if got := q.Eval(shuffled); got != want {
				t.Fatalf("%s: permuted eval %d != %d", a.Name(), got, want)
			}
		}
	}
}

func TestJoinOverPartitions(t *testing.T) {
	// Definition 2.5: f(X) = φ(f(X₁), f(X₂)) for any disjoint partition.
	r := rng.New(2)
	for _, a := range []Aggregate{Sum, Min, Max, And, Or} {
		q := Query{Agg: a, Value: Field(0)}
		data := make([]Data, 12)
		for i := range data {
			data[i] = Data{int64(r.Intn(3))}
		}
		want := q.Eval(data)
		for trial := 0; trial < 30; trial++ {
			var x1, x2 []Data
			for _, d := range data {
				if r.Bernoulli(0.5) {
					x1 = append(x1, d)
				} else {
					x2 = append(x2, d)
				}
			}
			if got := a.Join(q.Eval(x1), q.Eval(x2)); got != want {
				t.Fatalf("%s: partition join %d != %d", a.Name(), got, want)
			}
		}
	}
}

func TestDataBits(t *testing.T) {
	cases := []struct {
		d    Data
		want int
	}{
		{Data{}, 0},
		{Data{0}, 2},
		{Data{1}, 2},
		{Data{-1}, 2},
		{Data{255}, 9},
		{Data{3, -4}, 3 + 4},
	}
	for _, c := range cases {
		if got := c.d.Bits(); got != c.want {
			t.Errorf("Bits(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// sumMachine computes the sum of its neighbors' weights and halts with it
// after one virtual round.
type sumMachine struct{}

var sumPlan = [1]Query{{Agg: Sum, Value: Field(0)}}

func (sumMachine) Fields() int { return 1 }

func (sumMachine) Init(info *NodeInfo, data Data) { data[0] = info.Weight }

func (sumMachine) Queries(info *NodeInfo, t int, data Data, qs []*Query) []*Query {
	return AppendPlan(qs, sumPlan[:])
}

func (sumMachine) Update(info *NodeInfo, t int, data Data, results []int64) (bool, any) {
	return true, results[0]
}

func TestRunDirectNeighborSums(t *testing.T) {
	g := graph.GNP(20, 0.3, rng.New(3))
	graph.AssignUniformNodeWeights(g, 100, rng.New(4))
	res, err := RunDirect(g, simul.Config{Seed: 5}, func(v int) Machine { return sumMachine{} })
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		var want int64
		for _, u := range g.Neighbors(v) {
			want += g.NodeWeight(int(u))
		}
		if res.Outputs[v] != want {
			t.Fatalf("node %d sum = %v, want %d", v, res.Outputs[v], want)
		}
	}
	if res.VirtualRounds != 1 {
		t.Fatalf("virtual rounds = %d, want 1", res.VirtualRounds)
	}
}

// chaosMachine exercises randomness, multiple aggregates, and data mutation
// over several rounds; used to check that all runtimes produce identical
// executions.
type chaosMachine struct {
	rounds int
	digest int64
}

// chaosPlan's two Sum queries together aggregate d[0]+d[1]; the Or asks
// whether a neighbor drew d[0] < 22, about a third of the range [0, 64).
var chaosPlan = [4]Query{
	{Agg: Max, Value: Field(0)},
	{Agg: Sum, Value: Field(0)},
	{Agg: Sum, Value: Field(1)},
	{Agg: Or, Guard: Where(Cond{Field: 0, Lo: 0, Hi: 22}), Value: Constant(1)},
}

func (m *chaosMachine) Fields() int { return 2 }

func (m *chaosMachine) Init(info *NodeInfo, data Data) {
	data[0] = int64(info.Rand.Intn(64))
	data[1] = info.Weight
}

func (m *chaosMachine) Queries(info *NodeInfo, t int, data Data, qs []*Query) []*Query {
	return AppendPlan(qs, chaosPlan[:])
}

func (m *chaosMachine) Update(info *NodeInfo, t int, data Data, results []int64) (bool, any) {
	for _, r := range results {
		m.digest = m.digest*1000003 + r
	}
	if t == m.rounds-1 {
		return true, m.digest
	}
	data[0] = int64(info.Rand.Intn(64))
	data[1] = (data[1]*7 + results[1] + results[2]) % 1009
	if data[1] < 0 {
		data[1] += 1009
	}
	return false, nil
}

func TestLineRuntimeMatchesExplicitLineGraph(t *testing.T) {
	// The decisive Theorem 2.8 check: running a machine on L(G) through the
	// two-real-rounds-per-virtual-round simulation must produce *exactly* the
	// execution of the same machine run directly on an explicitly constructed
	// line graph, including all randomness.
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(12, 0.35, r.Split(uint64(trial)))
		if g.M() == 0 {
			continue
		}
		graph.AssignUniformEdgeWeights(g, 30, r.Split(uint64(100+trial)))
		seed := uint64(1000 + trial)
		build := func(id int) Machine { return &chaosMachine{rounds: 6} }

		direct, err := RunDirect(g.LineGraph(), simul.Config{Seed: seed, Model: simul.LOCAL}, build)
		if err != nil {
			t.Fatal(err)
		}
		line, err := RunLine(g, simul.Config{Seed: seed, Model: simul.LOCAL}, build)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Outputs, line.Outputs) {
			t.Fatalf("trial %d: line-graph simulation diverged from explicit L(G):\n%v\n%v",
				trial, direct.Outputs, line.Outputs)
		}
		naive, err := RunLineNaive(g, simul.Config{Seed: seed, Model: simul.LOCAL}, build)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Outputs, naive.Outputs) {
			t.Fatalf("trial %d: naive simulation diverged from explicit L(G)", trial)
		}
	}
}

func TestLineRuntimeCongestionFree(t *testing.T) {
	// Theorem 2.8's point: on a star (∆ = n-1), the aggregation simulation
	// pays 2 real rounds per virtual round and at most one message per edge
	// per round, while the naive simulation pays Θ(∆) rounds.
	g := graph.Star(40)
	build := func(id int) Machine { return &chaosMachine{rounds: 4} }

	line, err := RunLine(g, simul.Config{Seed: 1}, func(id int) Machine { return build(id) })
	if err != nil {
		t.Fatal(err)
	}
	// 2 real rounds per virtual round plus one final round in which the
	// secondaries learn the last halt.
	if line.Metrics.Rounds > 2*4+1 {
		t.Fatalf("aggregation simulation used %d real rounds for 4 virtual rounds", line.Metrics.Rounds)
	}
	perRound := float64(line.Metrics.Messages) / float64(line.Metrics.Rounds)
	if perRound > float64(g.M()) {
		t.Fatalf("aggregation simulation sends %.1f messages per round on %d edges", perRound, g.M())
	}

	naive, err := RunLineNaive(g, simul.Config{Seed: 1, Model: simul.LOCAL}, func(id int) Machine { return build(id) })
	if err != nil {
		t.Fatal(err)
	}
	if naive.Metrics.Rounds < (g.MaxDegree()-1)*4 {
		t.Fatalf("naive simulation used only %d real rounds; schedule broken", naive.Metrics.Rounds)
	}
	if naive.Metrics.Rounds <= 3*line.Metrics.Rounds {
		t.Fatalf("naive (%d rounds) not meaningfully slower than aggregation (%d rounds) at ∆=%d",
			naive.Metrics.Rounds, line.Metrics.Rounds, g.MaxDegree())
	}
}

// leaderMachine: a node whose key beats all neighbors' keys announces victory
// and leaves; its neighbors observe the announcement and leave as losers.
// Exercises the halt/visibility contract (announce at round t, halt at t+1).
type leaderMachine struct {
	won bool
}

var leaderPlan = [2]Query{
	{Agg: Max, Value: Field(0)},
	{Agg: Or, Value: Field(1)},
}

func (m *leaderMachine) Fields() int { return 2 } // key, wonFlag

func (m *leaderMachine) Init(info *NodeInfo, data Data) {
	data[0] = info.Weight
	data[1] = 0
}

func (m *leaderMachine) Queries(info *NodeInfo, t int, data Data, qs []*Query) []*Query {
	return AppendPlan(qs, leaderPlan[:])
}

func (m *leaderMachine) Update(info *NodeInfo, t int, data Data, results []int64) (bool, any) {
	if m.won {
		return true, "leader"
	}
	if results[1] != 0 {
		return true, "loser"
	}
	if data[0] > results[0] {
		// Strictly larger than every remaining neighbor: announce, then halt
		// next round so the announcement is visible.
		data[1] = 1
		m.won = true
	}
	return false, nil
}

func TestHaltVisibilityContract(t *testing.T) {
	// Path with distinct weights 1..6: node 5 (weight 6) wins first; node 4
	// loses; node 3 then has no live larger neighbor and wins; etc.
	g := graph.Path(6)
	for v := 0; v < 6; v++ {
		g.SetNodeWeight(v, int64(v+1))
	}
	for _, runtime := range []string{"direct", "line-on-path-line-graph"} {
		var res *Result
		var err error
		switch runtime {
		case "direct":
			res, err = RunDirect(g, simul.Config{Seed: 2}, func(v int) Machine { return &leaderMachine{} })
		default:
			// Run the same machine on L(path) through the line runtime; the
			// line graph of a path is a path, with weights defaulting to 1 —
			// set distinct edge weights to keep the scenario meaningful.
			h := graph.Path(7)
			for id := 0; id < h.M(); id++ {
				h.SetEdgeWeight(id, int64(id+1))
			}
			res, err = RunLine(h, simul.Config{Seed: 2}, func(id int) Machine { return &leaderMachine{} })
		}
		if err != nil {
			t.Fatalf("%s: %v", runtime, err)
		}
		leaders := 0
		for i, out := range res.Outputs {
			switch out {
			case "leader":
				leaders++
			case "loser":
			default:
				t.Fatalf("%s: output %d = %v", runtime, i, out)
			}
		}
		if leaders != 3 { // weights 6,4,2 (resp. edges 6,4,2) win in cascade
			t.Fatalf("%s: %d leaders, want 3", runtime, leaders)
		}
	}
}

func TestRunLineEmptyAndEdgeless(t *testing.T) {
	res, err := RunLine(graph.NewBuilder(5).MustBuild(), simul.Config{}, func(id int) Machine {
		t.Fatal("build called with no edges")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

// badMachine declares a field count that cannot size an arena slot. (A
// wrong-length Data vector is no longer expressible: Init fills a
// runtime-owned view of exactly Fields() elements.)
type badMachine struct{}

func (badMachine) Fields() int          { return -1 }
func (badMachine) Init(*NodeInfo, Data) {}
func (badMachine) Queries(_ *NodeInfo, _ int, _ Data, qs []*Query) []*Query {
	return qs
}
func (badMachine) Update(*NodeInfo, int, Data, []int64) (bool, any) { return true, nil }

func TestFieldCountValidated(t *testing.T) {
	g := graph.Path(3)
	if _, err := RunDirect(g, simul.Config{}, func(v int) Machine { return badMachine{} }); err == nil {
		t.Fatal("RunDirect accepted a machine with a negative field count")
	}
	if _, err := RunLine(g, simul.Config{}, func(id int) Machine { return badMachine{} }); err == nil {
		t.Fatal("RunLine accepted a machine with a negative field count")
	}
	if _, err := RunLineNaive(g, simul.Config{}, func(id int) Machine { return badMachine{} }); err == nil {
		t.Fatal("RunLineNaive accepted a machine with a negative field count")
	}
}

func TestCongestBudgetAppliesToLineRuntime(t *testing.T) {
	// With a tiny bit budget the partial-aggregate messages must be rejected.
	g := graph.Complete(6)
	graph.AssignUniformEdgeWeights(g, 1<<40, rng.New(9))
	_, err := RunLine(g, simul.Config{Model: simul.CONGEST, BitsFactor: 1}, func(id int) Machine {
		return &chaosMachine{rounds: 3}
	})
	if err == nil {
		t.Fatal("oversized aggregate messages passed a 1×log n budget")
	}
}
