package repro

// The benchmark harness regenerates the paper's evaluation artifacts
// (DESIGN.md §1). The paper is theoretical, so each bench measures the two
// quantities its claims are about — achieved approximation ratio and round
// complexity — and reports them as custom metrics:
//
//	rounds        algorithm round complexity (virtual rounds)
//	ratio         OPT / achieved   (≥ 1; must stay below the proven factor)
//	uncovered     fraction of uncovered nodes (Theorem 3.1)
//
// DESIGN.md §5 lists the experiments these rows regenerate.

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/augment"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/nmis"
	"repro/internal/rng"
	"repro/internal/simul"
)

// E1a — Table 1 row 1 (randomized): MaxIS ∆-approximation, rounds
// O(MIS(G)·log W) = O(log n · log W) with Luby's MIS. Sweeps n at fixed W and
// W at fixed n; the rounds metric must scale with log n · log W.
func BenchmarkTable1Row1_MaxISRandomized(b *testing.B) {
	cases := []struct{ n, w int }{
		{64, 16}, {128, 16}, {256, 16}, {512, 16},
		{128, 1}, {128, 256}, {128, 4096},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("n=%d/W=%d", c.n, c.w), func(b *testing.B) {
			g := GNP(c.n, 8/float64(c.n), uint64(c.n*31+c.w))
			AssignUniformNodeWeights(g, int64(c.w), uint64(c.w))
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := MaxIS(g, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += isRatio(b, g, res.Weight)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// isRatio returns OPT/weight against the strongest affordable baseline:
// exact for n ≤ 60, otherwise the greedy-weight lower bound on OPT.
func isRatio(b *testing.B, g *Graph, got int64) float64 {
	b.Helper()
	if got == 0 {
		return 0
	}
	if g.N() <= 60 {
		_, opt, err := exact.MaxWeightIndependentSet(g)
		if err != nil {
			b.Fatal(err)
		}
		return float64(opt) / float64(got)
	}
	lower := g.SetWeight(exact.GreedyWeightIS(g))
	return float64(lower) / float64(got)
}

// E1b — Table 1 row 1: 2-approximate MWM = Algorithm 2 on L(G) (Thm 2.10).
func BenchmarkTable1Row1_MWMRandomized(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := GNP(n, 6/float64(n), uint64(n))
			AssignUniformEdgeWeights(g, 64, uint64(n)+1)
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := MWM2(g, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += mwmRatio(b, g, res.Weight)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// mwmRatio returns OPT/weight using the greedy 2-approximation to bound OPT
// from below when the graph is too large for the exact DP.
func mwmRatio(b *testing.B, g *Graph, got int64) float64 {
	b.Helper()
	if got == 0 {
		return 0
	}
	if g.N() <= 20 {
		_, opt, err := exact.MaxWeightMatchingBrute(g)
		if err != nil {
			b.Fatal(err)
		}
		return float64(opt) / float64(got)
	}
	lower := g.MatchingWeight(exact.GreedyMatching(g))
	return float64(lower) / float64(got)
}

// E2 — Table 1 row 2 (deterministic): Algorithm 3. Rounds of the reduction
// stage are O(∆); the ∆ sweep at fixed n must show linear growth.
func BenchmarkTable1Row2_MaxISDeterministic(b *testing.B) {
	for _, d := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("delta=%d", d), func(b *testing.B) {
			g, err := RandomRegular(128, d, uint64(d))
			if err != nil {
				b.Fatal(err)
			}
			AssignUniformNodeWeights(g, 1000, uint64(d)+7)
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := MaxISDeterministic(g, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += isRatio(b, g, res.Weight)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// E2b — Table 1 row 2: deterministic-reduction 2-approximate MWM.
func BenchmarkTable1Row2_MWMDeterministic(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("delta=%d", d), func(b *testing.B) {
			g, err := RandomRegular(64, d, uint64(d)+3)
			if err != nil {
				b.Fatal(err)
			}
			AssignUniformEdgeWeights(g, 256, uint64(d)+9)
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := MWM2Deterministic(g, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += mwmRatio(b, g, res.Weight)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// E3 — Table 1 row 3: (2+ε)-approximate MWM in O(log∆/loglog∆)-style rounds.
// The ∆ sweep at fixed n shows the sublogarithmic growth; rounds must not
// scale with n (compare n=128 vs n=512 at ∆=8).
func BenchmarkTable1Row3_FastMWM(b *testing.B) {
	cases := []struct{ n, d int }{{128, 4}, {128, 8}, {128, 16}, {512, 8}}
	for _, c := range cases {
		b.Run(fmt.Sprintf("n=%d/delta=%d", c.n, c.d), func(b *testing.B) {
			g, err := RandomRegular(c.n, c.d, uint64(c.n+c.d))
			if err != nil {
				b.Fatal(err)
			}
			AssignUniformEdgeWeights(g, 512, uint64(c.d)+11)
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := FastMWM(g, 0.5, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += mwmRatio(b, g, res.Weight)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// E4 — Table 1 row 4: (1+ε)-approximate MCM (Theorem B.4). Ratio is against
// the exact blossom optimum.
func BenchmarkTable1Row4_FastMCM(b *testing.B) {
	for _, eps := range []float64{1, 0.5, 0.34} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			g := GNP(96, 0.06, 77)
			opt := float64(len(exact.MaxCardinalityMatching(g)))
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := OneEpsMCM(g, eps, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += opt / float64(len(res.Edges))
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
	// The §B.3 CONGEST construction of the same result.
	for _, eps := range []float64{1, 0.5} {
		b.Run(fmt.Sprintf("congest/eps=%.2f", eps), func(b *testing.B) {
			g := GNP(48, 0.12, 79)
			opt := float64(len(exact.MaxCardinalityMatching(g)))
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := OneEpsMCMCongest(g, eps, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				if len(res.Edges) > 0 {
					ratio += opt / float64(len(res.Edges))
				}
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
	// The (2+ε) variant of Theorem 3.2, for the same row's CONGEST claim.
	for _, d := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("2eps/delta=%d", d), func(b *testing.B) {
			g, err := RandomRegular(256, d, uint64(d)+13)
			if err != nil {
				b.Fatal(err)
			}
			opt := float64(len(exact.MaxCardinalityMatching(g)))
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := FastMCM(g, 0.5, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += opt / float64(len(res.Edges))
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// E5 — Figure 1: the forward/backward augmenting-path counting traversal
// (Claims B.5/B.6); cmd/fig1 renders the picture, this bench measures it.
func BenchmarkFigure1_PathCounting(b *testing.B) {
	g, side := RandomBipartite(128, 128, 0.04, 5)
	mate := augment.MateFromMatching(g, exact.GreedyMatching(g))
	active := make([]bool, g.N())
	for i := range active {
		active[i] = true
	}
	b.ResetTimer()
	var paths float64
	for i := 0; i < b.N; i++ {
		pc, err := augment.CountPaths(g, side, mate, 3, active)
		if err != nil {
			b.Fatal(err)
		}
		total := int64(0)
		for v := 0; v < g.N(); v++ {
			if side[v] == 1 && mate[v] == -1 {
				total += pc.Forward[v]
			}
		}
		paths += float64(total)
	}
	b.ReportMetric(paths/float64(b.N), "paths")
}

// E6 — Theorem 3.1: uncovered probability after the NMIS round budget.
func BenchmarkTheorem31_NMISCoverage(b *testing.B) {
	for _, delta := range []float64{0.2, 0.05} {
		b.Run(fmt.Sprintf("delta=%.2f", delta), func(b *testing.B) {
			g := GNP(256, 0.03, 9)
			var rounds, uncovered float64
			for i := 0; i < b.N; i++ {
				res, err := nmis.Run(g, nmis.Params{K: 2, Delta: delta}, simul.Config{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.VirtualRounds)
				uncovered += float64(res.UncoveredCount()) / float64(g.N())
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(uncovered/float64(b.N), "uncovered")
		})
	}
}

// E7 — the §2.1 star ablation: naive simultaneous local ratio scores zero
// where Algorithm 2 collects the leaves.
func BenchmarkAblation_StarFailure(b *testing.B) {
	g := Star(64)
	g.SetNodeWeight(0, 100)
	for v := 1; v < 64; v++ {
		g.SetNodeWeight(v, 3)
	}
	var naive, alg2 float64
	for i := 0; i < b.N; i++ {
		naive += float64(g.SetWeight(core.NaiveSimultaneousLocalRatio(g)))
		res, err := MaxIS(g, WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		alg2 += float64(res.Weight)
	}
	b.ReportMetric(naive/float64(b.N), "naive_weight")
	b.ReportMetric(alg2/float64(b.N), "alg2_weight")
}

// E8 — Theorem 2.8 ablation: aggregation-based line-graph simulation vs the
// naive relay simulation on a high-degree star.
func BenchmarkAblation_AggregationVsNaive(b *testing.B) {
	g := Star(48)
	AssignUniformEdgeWeights(g, 32, 3)
	build, err := newChaosBuilder()
	if err != nil {
		b.Fatal(err)
	}
	var smart, naive float64
	for i := 0; i < b.N; i++ {
		s, err := agg.RunLine(g, simul.Config{Seed: uint64(i), Model: simul.LOCAL}, build)
		if err != nil {
			b.Fatal(err)
		}
		n, err := agg.RunLineNaive(g, simul.Config{Seed: uint64(i), Model: simul.LOCAL}, build)
		if err != nil {
			b.Fatal(err)
		}
		smart += float64(s.Metrics.Rounds)
		naive += float64(n.Metrics.Rounds)
	}
	b.ReportMetric(smart/float64(b.N), "agg_rounds")
	b.ReportMetric(naive/float64(b.N), "naive_rounds")
}

// newChaosBuilder reuses the MWM2 machine as a representative local
// aggregation workload for E8.
func newChaosBuilder() (func(e int) agg.Machine, error) {
	factory, err := misFactoryForBench()
	if err != nil {
		return nil, err
	}
	return factory, nil
}

func misFactoryForBench() (func(e int) agg.Machine, error) {
	// A short NMIS run is the cheapest non-trivial aggregation machine.
	build, err := nmis.NewMachine(nmis.Params{K: 2, Delta: 0.2, MaxDegree: 64})
	if err != nil {
		return nil, err
	}
	return func(e int) agg.Machine { return build(e) }, nil
}

// E9 — Appendix B.4: the proposal algorithm's rounds follow
// O(K·log(1/ε) + log∆/logK) and the ratio stays within (2+ε).
func BenchmarkAppendixB4_Proposal(b *testing.B) {
	for _, d := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("delta=%d", d), func(b *testing.B) {
			g, err := RandomRegular(256, d, uint64(d)+17)
			if err != nil {
				b.Fatal(err)
			}
			opt := float64(len(exact.MaxCardinalityMatching(g)))
			var rounds, ratio float64
			for i := 0; i < b.N; i++ {
				res, err := ProposalMCM(g, 0.5, WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
				ratio += opt / float64(len(res.Edges))
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(ratio/float64(b.N), "ratio")
		})
	}
}

// E10 — ablation: the MIS black box inside Algorithm 2.
func BenchmarkAblation_MISBlackBox(b *testing.B) {
	g := GNP(128, 0.06, 21)
	AssignUniformNodeWeights(g, 128, 22)
	for _, name := range []string{MISLuby, MISGhaffari, MISGreedyID} {
		b.Run(name, func(b *testing.B) {
			var rounds float64
			for i := 0; i < b.N; i++ {
				res, err := MaxIS(g, WithSeed(uint64(i)), WithMIS(name))
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Cost.Rounds)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
		})
	}
}

// E11 — ablation: the K parameter of the §3.1 NMIS (balancing the two
// progress types).
func BenchmarkAblation_NMISKSweep(b *testing.B) {
	g := GNP(256, 0.05, 23)
	for _, k := range []int{2, 3, 4, 6} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var rounds, uncovered float64
			for i := 0; i < b.N; i++ {
				res, err := nmis.Run(g, nmis.Params{K: k, Delta: 0.1}, simul.Config{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.VirtualRounds)
				uncovered += float64(res.UncoveredCount()) / float64(g.N())
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(uncovered/float64(b.N), "uncovered")
		})
	}
}

// Substrate microbenchmarks: the engine and the exact baselines, so
// regressions in the simulator show up independently of algorithm changes.
func BenchmarkEngineFlood(b *testing.B) {
	g := graph.Grid(16, 16)
	for i := 0; i < b.N; i++ {
		_, err := simul.Run(g, simul.Config{Seed: uint64(i)}, func(v int) simul.Automaton {
			return floodAutomaton{}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

type floodAutomaton struct{}

type beat struct{}

func (beat) Bits() int { return 1 }

func (floodAutomaton) Step(ctx *simul.Context, inbox []simul.Envelope) {
	if ctx.Round() == 8 {
		ctx.Halt(nil)
		return
	}
	ctx.Broadcast(beat{})
}

func BenchmarkExactBlossom(b *testing.B) {
	g := GNP(128, 0.08, 29)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := exact.MaxCardinalityMatching(g); len(m) == 0 {
			b.Fatal("empty matching")
		}
	}
}

func BenchmarkExactBranchAndBoundIS(b *testing.B) {
	g := GNP(40, 0.2, 31)
	graph.AssignUniformNodeWeights(g, 64, rng.New(32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exact.MaxWeightIndependentSet(g); err != nil {
			b.Fatal(err)
		}
	}
}
