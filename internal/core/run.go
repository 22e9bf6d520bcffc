package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/simul"
)

// MaxISResult is the outcome of a distributed MaxIS approximation.
type MaxISResult struct {
	InSet  []bool
	Weight int64
	// VirtualRounds counts algorithm rounds; Windows the number of MIS
	// windows (Algorithm 2) or color cycles (Algorithm 3) used.
	VirtualRounds int
	Windows       int
	// ColoringRounds counts the rounds of the coloring preprocessing
	// (Algorithm 3 only), reported separately per DESIGN.md §3.
	ColoringRounds int
	Metrics        simul.Metrics
	// Memo totals the line runtime's exchange-folding hit/miss counts over
	// every phase (zero for the direct runtime).
	Memo agg.MemoStats
}

// MatchingResult is the outcome of a distributed matching approximation.
type MatchingResult struct {
	Edges  []int
	Weight int64
	// VirtualRounds counts algorithm rounds on the line graph;
	// Metrics.Rounds counts real CONGEST rounds on G (2× per Theorem 2.8).
	VirtualRounds  int
	ColoringRounds int
	Metrics        simul.Metrics
	// Memo totals the exchange-folding memo's hit/miss counts over every
	// phase of the line simulation.
	Memo agg.MemoStats
}

// DistributedMaxIS runs Algorithm 2 on g with the named MIS black box
// ("luby", "ghaffari" or "greedyid") and returns a ∆-approximate maximum
// weight independent set in O(MIS(G)·log W) rounds w.h.p. (Theorem 2.3).
func DistributedMaxIS(g *graph.Graph, misName string, cfg simul.Config) (*MaxISResult, error) {
	factory, err := mis.Factory(misName)
	if err != nil {
		return nil, err
	}
	// One machine serves every node: algorithm2 (and the Subs it embeds)
	// keeps all per-node state in the Data vector, and sharing the instance
	// makes every precomputed query plan shared too, which is what lets the
	// line/direct runtimes answer "all neighbors except me" partials from
	// per-node prefix/suffix folds instead of O(∆) work per virtual node.
	m := newAlgorithm2(factory, g.N())
	res, err := agg.RunDirect(g, cfg, func(v int) agg.Machine { return m })
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 2 on %d nodes: %w", g.N(), err)
	}
	return buildMaxISResult(g, res, m.window())
}

// ColoringMaxIS runs Algorithm 3 on g: a coloring phase (deterministic Linial
// reduction if deterministic is true, randomized palette otherwise) followed
// by the color-priority local-ratio machine. Total round complexity is
// O(∆ + coloring) (§2.3).
func ColoringMaxIS(g *graph.Graph, deterministic bool, cfg simul.Config) (*MaxISResult, error) {
	var col *coloring.Result
	var err error
	if deterministic {
		col, err = coloring.LinialDeterministic(g, cfg)
	} else {
		col, err = coloring.RandomGreedy(g, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("core: coloring phase: %w", err)
	}
	machines := algorithm3ByColor(col.NumColors)
	res, err := agg.RunDirect(g, cfg, func(v int) agg.Machine {
		return machines(col.Colors[v])
	})
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 3: %w", err)
	}
	out, err := buildMaxISResult(g, res, 2)
	if err != nil {
		return nil, err
	}
	out.ColoringRounds = col.VirtualRounds
	out.Metrics.Merge(col.Metrics)
	out.Memo.Add(col.Memo)
	return out, nil
}

// algorithm3ByColor returns a lazily-filled color → shared machine table:
// algorithm3 is stateless apart from its color, so nodes of one color class
// share a single instance (and therefore its query plans).
func algorithm3ByColor(numColors int) func(color int) agg.Machine {
	machines := make([]*algorithm3, numColors)
	return func(color int) agg.Machine {
		if machines[color] == nil {
			machines[color] = newAlgorithm3(color)
		}
		return machines[color]
	}
}

func buildMaxISResult(g *graph.Graph, res *agg.Result, window int) (*MaxISResult, error) {
	out := &MaxISResult{
		InSet:         make([]bool, g.N()),
		VirtualRounds: res.VirtualRounds,
		Windows:       (res.VirtualRounds + window - 1) / max(window, 1),
		Metrics:       res.Metrics,
		Memo:          res.Memo,
	}
	for v, o := range res.Outputs {
		b, ok := o.(bool)
		if !ok {
			return nil, fmt.Errorf("core: node %d output %v, want bool", v, o)
		}
		out.InSet[v] = b
		if b {
			out.Weight += g.NodeWeight(v)
		}
	}
	return out, nil
}

// DistributedMWM2 computes a 2-approximate maximum weight matching by
// executing Algorithm 2 on the line graph L(g) through the congestion-free
// simulation of Theorem 2.8 (Theorem 2.10, randomized variant). Round
// complexity O(MIS·log W) virtual rounds, 2× that in real CONGEST rounds.
func DistributedMWM2(g *graph.Graph, misName string, cfg simul.Config) (*MatchingResult, error) {
	factory, err := mis.Factory(misName)
	if err != nil {
		return nil, err
	}
	// As in DistributedMaxIS, one stateless machine serves every edge.
	m := newAlgorithm2(factory, g.M())
	res, err := agg.RunLine(g, cfg, func(e int) agg.Machine { return m })
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 2 on L(G) with %d edges: %w", g.M(), err)
	}
	return buildMatchingResult(g, res)
}

// ColoringMWM2 computes a 2-approximate maximum weight matching by running
// Algorithm 3 on L(g): a (∆_L+1)-coloring of the line graph (randomized
// palette, executed through Theorem 2.8) followed by the color-priority
// machine (Theorem 2.10, deterministic-reduction variant; see DESIGN.md §3
// on the coloring black box).
func ColoringMWM2(g *graph.Graph, cfg simul.Config) (*MatchingResult, error) {
	col, err := coloring.RandomGreedyOnLine(g, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: line-graph coloring: %w", err)
	}
	machines := algorithm3ByColor(col.NumColors)
	res, err := agg.RunLine(g, cfg, func(e int) agg.Machine {
		return machines(col.Colors[e])
	})
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 3 on L(G): %w", err)
	}
	out, err := buildMatchingResult(g, res)
	if err != nil {
		return nil, err
	}
	out.ColoringRounds = col.VirtualRounds
	out.Metrics.Merge(col.Metrics)
	out.Memo.Add(col.Memo)
	return out, nil
}

func buildMatchingResult(g *graph.Graph, res *agg.Result) (*MatchingResult, error) {
	out := &MatchingResult{VirtualRounds: res.VirtualRounds, Metrics: res.Metrics, Memo: res.Memo}
	for e, o := range res.Outputs {
		b, ok := o.(bool)
		if !ok {
			return nil, fmt.Errorf("core: edge %d output %v, want bool", e, o)
		}
		if b {
			out.Edges = append(out.Edges, e)
			out.Weight += g.EdgeWeight(e)
		}
	}
	return out, nil
}
