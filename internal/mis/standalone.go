package mis

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/simul"
)

// Algorithm names accepted by New and the public facade.
const (
	Luby     = "luby"
	Ghaffari = "ghaffari"
	GreedyID = "greedyid"
)

// Factory returns the sub-protocol factory for the named algorithm.
func Factory(name string) (SubFactory, error) {
	switch name {
	case Luby:
		return NewLubySub(), nil
	case Ghaffari:
		return NewGhaffariSub(), nil
	case GreedyID:
		return NewGreedyIDSub(), nil
	default:
		return nil, fmt.Errorf("mis: unknown algorithm %q (want %s, %s or %s)", name, Luby, Ghaffari, GreedyID)
	}
}

// standalone drives a Sub to completion on its own: every live node
// participates, and nodes halt once decided (set members linger one round to
// announce themselves, per the agg.Machine visibility contract).
type standalone struct {
	sub      Sub
	announce bool // joined the set; halting next round
}

// NewMachine returns a standalone agg.Machine for the named algorithm. Run it
// with agg.RunDirect for an MIS of a graph, or agg.RunLine for a maximal
// matching (an MIS of the line graph). Outputs are bool (in the set or not).
func NewMachine(name string) (func(v int) agg.Machine, error) {
	factory, err := Factory(name)
	if err != nil {
		return nil, err
	}
	// The Sub keeps its state in the Data vector, so one serves every node
	// of the run, and its plan entries are shared for exchange folding.
	sub := factory(0)
	return func(v int) agg.Machine {
		return &standalone{sub: sub}
	}, nil
}

func (m *standalone) Fields() int { return m.sub.Fields() }

func (m *standalone) Init(info *agg.NodeInfo, d agg.Data) {
	m.sub.Begin(info, d, true)
}

func (m *standalone) Queries(info *agg.NodeInfo, t int, data agg.Data, qs []*agg.Query) []*agg.Query {
	return m.sub.Queries(info, t, data, qs)
}

func (m *standalone) Update(info *agg.NodeInfo, t int, data agg.Data, results []int64) (bool, any) {
	if m.announce {
		// Membership was published in the previous round; leave now.
		return true, true
	}
	m.sub.Update(info, t, data, results)
	if !m.sub.Decided(data) {
		return false, nil
	}
	if m.sub.InMIS(data) {
		m.announce = true // stay one more round so neighbors observe us
		return false, nil
	}
	return true, false
}

// Result of a standalone MIS computation.
type Result struct {
	InSet         []bool
	VirtualRounds int
	Metrics       simul.Metrics
}

// Compute runs the named MIS algorithm on g and returns the set.
func Compute(g *graph.Graph, name string, cfg simul.Config) (*Result, error) {
	build, err := NewMachine(name)
	if err != nil {
		return nil, err
	}
	res, err := agg.RunDirect(g, cfg, build)
	if err != nil {
		return nil, err
	}
	return toResult(res, g.N())
}

// ComputeOnLine runs the named MIS algorithm on L(g) through the Theorem 2.8
// simulation, yielding a maximal matching of g: InSet is indexed by edge ID.
func ComputeOnLine(g *graph.Graph, name string, cfg simul.Config) (*Result, error) {
	build, err := NewMachine(name)
	if err != nil {
		return nil, err
	}
	res, err := agg.RunLine(g, cfg, func(e int) agg.Machine { return build(e) })
	if err != nil {
		return nil, err
	}
	return toResult(res, g.M())
}

func toResult(res *agg.Result, n int) (*Result, error) {
	out := &Result{
		InSet:         make([]bool, n),
		VirtualRounds: res.VirtualRounds,
		Metrics:       res.Metrics,
	}
	for i, o := range res.Outputs {
		b, ok := o.(bool)
		if !ok {
			return nil, fmt.Errorf("mis: node %d produced output %v, want bool", i, o)
		}
		out.InSet[i] = b
	}
	return out, nil
}
