// Package coloring implements the (∆+1)-coloring black boxes consumed by the
// paper's Algorithm 3 (§2.3).
//
// Two algorithms are provided:
//
//   - RandomGreedy: the classical randomized free-palette coloring — every
//     round each uncolored node proposes a uniformly random color from its
//     palette minus the colors its neighborhood already fixed, and keeps the
//     proposal if no neighbor proposed the same color. O(log n) rounds
//     w.h.p. It is a local aggregation algorithm (palette occupancy travels
//     as BitOr masks), so it also colors line graphs through agg.RunLine.
//
//   - LinialDeterministic: Linial's iterated polynomial color reduction
//     [Lin87] down to O((d·∆)²) colors in O(log* n) exchanges, followed by
//     the standard one-color-class-per-round reduction to ∆+1. Fully
//     deterministic; it substitutes for the O(∆ + log* n) algorithm of
//     [BEK14, Bar15] that the paper cites (see DESIGN.md §3).
//
// Layer (DESIGN.md §2): coloring is a black-box layer beside internal/mis,
// above the internal/simul engine (and internal/agg for the line-graph
// form), below internal/core.
//
// Concurrency and ownership: each call runs one simulation to completion on
// the calling goroutine; input graphs are read-only and may be shared, and
// the returned Result (color vector included) is owned by the caller.
package coloring

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/simul"
)

// Result of a coloring computation.
type Result struct {
	// Colors[v] ∈ [0, NumColors). Indexed by node under RandomGreedy /
	// LinialDeterministic, by edge ID under RandomGreedyOnLine.
	Colors    []int
	NumColors int
	// VirtualRounds is the algorithm's round complexity; Metrics.Rounds the
	// real network rounds (they differ by 2× for the line runtime).
	VirtualRounds int
	Metrics       simul.Metrics
	// Memo carries the line runtime's exchange-folding hit/miss counts
	// (zero for the node-level colorings).
	Memo agg.MemoStats
}

// Verify returns an error unless colors is a proper coloring of g.
func Verify(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d nodes", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("coloring: node %d uncolored (%d)", v, c)
		}
	}
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			return fmt.Errorf("coloring: edge %v monochromatic with color %d", e, colors[e.U])
		}
	}
	return nil
}

const chunkBits = 62 // palette bits carried per BitOr mask

// paletteMachine is the randomized free-palette coloring as an agg.Machine.
// Data layout: [state, candidate, color]; state 0 = undecided, 1 = decided.
// The query plan depends only on the global palette size, so one plan (built
// by palettePlan) is shared by every machine of a run.
type paletteMachine struct {
	palette int         // global palette size (∆+1 of the virtual graph)
	plan    []agg.Query // shared precomputed plan: 2 masks per chunk + allDecided
	free    []int       // reusable redraw scratch
}

func (m *paletteMachine) Fields() int { return 3 }

// palettePlan precomputes the per-round query set for the given palette size:
// per 62-bit palette chunk one BitOr mask of undecided neighbors' proposals
// and one of decided neighbors' fixed colors, plus an And over the decided
// flags. The plan is immutable and shared by every machine of a run.
func palettePlan(palette int) []agg.Query {
	chunks := (palette + chunkBits - 1) / chunkBits
	qs := make([]agg.Query, 0, 2*chunks+1)
	for c := 0; c < chunks; c++ {
		lo := int64(c * chunkBits)
		hi := lo + chunkBits
		qs = append(qs,
			// Candidates proposed by undecided neighbors this round.
			agg.Query{Agg: agg.BitOr,
				Guard: agg.Where(agg.Eq(0, 0), agg.Cond{Field: 1, Lo: lo, Hi: hi}),
				Value: agg.Bit(1, lo)},
			// Colors fixed by decided neighbors.
			agg.Query{Agg: agg.BitOr,
				Guard: agg.Where(agg.Eq(0, 1), agg.Cond{Field: 2, Lo: lo, Hi: hi}),
				Value: agg.Bit(2, lo)})
	}
	// All neighbors decided?
	return append(qs, agg.Query{Agg: agg.And, Value: agg.Field(0)})
}

func (m *paletteMachine) Init(info *agg.NodeInfo, d agg.Data) {
	d[0] = 0
	d[1] = int64(info.Rand.Intn(min(info.Degree+1, m.palette)))
	d[2] = -1
}

func (m *paletteMachine) Queries(info *agg.NodeInfo, t int, data agg.Data, qs []*agg.Query) []*agg.Query {
	return agg.AppendPlan(qs, m.plan)
}

func (m *paletteMachine) maskHas(results []int64, stride, value int) bool {
	chunk := value / chunkBits
	return results[2*chunk+stride]&(1<<uint(value%chunkBits)) != 0
}

func (m *paletteMachine) Update(info *agg.NodeInfo, t int, data agg.Data, results []int64) (bool, any) {
	allDecided := results[len(results)-1] != 0
	if data[0] == 1 {
		// Already colored; linger until every neighbor is decided so they
		// can keep reading our color, then leave.
		if allDecided {
			return true, int(data[2])
		}
		return false, nil
	}
	cand := int(data[1])
	conflict := m.maskHas(results, 0, cand) || m.maskHas(results, 1, cand)
	if !conflict {
		data[0] = 1
		data[2] = data[1]
		return false, nil // stay visible; halt once neighbors are done
	}
	// Redraw from the palette minus decided neighbors' colors. The palette of
	// size deg+1 always has a free color.
	limit := min(info.Degree+1, m.palette)
	m.free = m.free[:0]
	for c := 0; c < limit; c++ {
		if !m.maskHas(results, 1, c) {
			m.free = append(m.free, c)
		}
	}
	if len(m.free) == 0 {
		// Cannot happen on a correct run; fall back to full palette so the
		// failure is visible as non-termination rather than a panic.
		m.free = append(m.free, info.Rand.Intn(m.palette))
	}
	data[1] = int64(m.free[info.Rand.Intn(len(m.free))])
	return false, nil
}

// RandomGreedy colors g with at most ∆+1 colors in O(log n) rounds w.h.p.
func RandomGreedy(g *graph.Graph, cfg simul.Config) (*Result, error) {
	palette := g.MaxDegree() + 1
	plan := palettePlan(palette)
	res, err := agg.RunDirect(g, cfg, func(v int) agg.Machine {
		return &paletteMachine{palette: palette, plan: plan}
	})
	if err != nil {
		return nil, err
	}
	return paletteResult(res, g.N(), palette)
}

// RandomGreedyOnLine colors the line graph L(g) — i.e., properly edge-colors
// g with at most 2∆-1 colors — through the Theorem 2.8 simulation. Colors are
// indexed by edge ID.
func RandomGreedyOnLine(g *graph.Graph, cfg simul.Config) (*Result, error) {
	palette := g.MaxLineDegree() + 1
	plan := palettePlan(palette)
	res, err := agg.RunLine(g, cfg, func(e int) agg.Machine {
		return &paletteMachine{palette: palette, plan: plan}
	})
	if err != nil {
		return nil, err
	}
	return paletteResult(res, g.M(), palette)
}

func paletteResult(res *agg.Result, n, palette int) (*Result, error) {
	out := &Result{
		Colors:        make([]int, n),
		NumColors:     palette,
		VirtualRounds: res.VirtualRounds,
		Metrics:       res.Metrics,
		Memo:          res.Memo,
	}
	for i, o := range res.Outputs {
		c, ok := o.(int)
		if !ok {
			return nil, fmt.Errorf("coloring: node %d output %v, want int", i, o)
		}
		out.Colors[i] = c
	}
	return out, nil
}
