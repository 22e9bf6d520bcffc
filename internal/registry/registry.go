// Package registry is the single source of truth mapping algorithm names to
// runnable specs. Every entry point — cmd/distmatch, cmd/sweep, cmd/benchtab,
// the repro facade's Run, and the internal/service job engine — dispatches
// through this table instead of hand-rolling its own switch.
//
// Each Spec wraps one of the facade internals (core, fastmatch, augment,
// nmis) behind the uniform signature
//
//	Run(g *graph.Graph, p Params) (*Result, error)
//
// with zero-valued Params fields meaning "use the documented default".
//
// Layer (DESIGN.md §2, §4): registry sits above every algorithm package and
// below the facade, the service/store layer and the cmd binaries.
//
// Concurrency and ownership: the spec and generator tables are populated at
// init and never mutated, so all lookups (Get, All, Names, GetGenerator, …)
// are safe for concurrent use. Spec.Run and GenSpec.Build are pure per
// call — input graphs are read-only and shareable, each call returns a
// fresh Result/Graph owned by the caller — so one Spec may serve any number
// of concurrent runs.
package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"repro/internal/agg"
	"repro/internal/augment"
	"repro/internal/core"
	"repro/internal/fastmatch"
	"repro/internal/graph"
	"repro/internal/nmis"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/simul"
)

// Kind classifies what an algorithm outputs.
type Kind int

const (
	// IS algorithms return an independent set of the input graph.
	IS Kind = iota
	// Matching algorithms return a set of edge IDs forming a matching.
	Matching
	// NMIS algorithms return a nearly-maximal independent set plus the
	// count of nodes left uncovered.
	NMIS
)

func (k Kind) String() string {
	switch k {
	case IS:
		return "is"
	case Matching:
		return "matching"
	case NMIS:
		return "nmis"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params carries every knob any registered algorithm accepts. Zero values
// select defaults (Eps 0.5, K 2, Delta 0.1, MIS "luby", Model CONGEST);
// a Spec ignores fields outside its Params list.
type Params struct {
	// Eps is the ε of the (1+ε)/(2+ε) algorithms.
	Eps float64
	// K is the probability factor of the §3/§B algorithms (≥ 2).
	K int
	// Delta is the NMIS failure target δ ∈ (0, 1).
	Delta float64
	// MIS names the MIS black box: "luby", "ghaffari" or "greedyid".
	MIS string
	// Model is CONGEST (default) or LOCAL.
	Model simul.Model
	// Seed fixes all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// MaxRounds, BitsFactor and Parallel pass through to simul.Config.
	MaxRounds  int
	BitsFactor int
	Parallel   bool
	// DeterministicColoring switches Algorithm 3 to the Linial reduction.
	DeterministicColoring bool
}

// Normalized returns p with defaults filled in for zero-valued fields.
func (p Params) Normalized() Params {
	if p.Eps == 0 {
		p.Eps = 0.5
	}
	if p.K == 0 {
		p.K = 2
	}
	if p.Delta == 0 {
		p.Delta = 0.1
	}
	if p.MIS == "" {
		p.MIS = "luby"
	}
	return p
}

// CacheKey renders the algorithm name plus the normalized params the spec
// actually reads, so runs that differ only in an irrelevant knob share a
// cache entry. Engine knobs that can change any execution (round limit,
// CONGEST bit budget, engine choice) are always included.
func (s *Spec) CacheKey(p Params) string {
	p = p.Normalized()
	var b strings.Builder
	b.WriteString(s.Name)
	for _, name := range s.Params {
		switch name {
		case "eps":
			fmt.Fprintf(&b, ",eps=%g", p.Eps)
		case "k":
			fmt.Fprintf(&b, ",k=%d", p.K)
		case "delta":
			fmt.Fprintf(&b, ",delta=%g", p.Delta)
		case "mis":
			fmt.Fprintf(&b, ",mis=%s", p.MIS)
		case "model":
			fmt.Fprintf(&b, ",model=%s", p.Model)
		case "seed":
			fmt.Fprintf(&b, ",seed=%d", p.Seed)
		case "det_coloring":
			fmt.Fprintf(&b, ",det=%t", p.DeterministicColoring)
		}
	}
	fmt.Fprintf(&b, ",maxr=%d,bits=%d,par=%t", p.MaxRounds, p.BitsFactor, p.Parallel)
	return b.String()
}

// ValidEps, ValidK and ValidDelta are the single source of truth for the
// parameter bounds; the facade and the CLIs reuse them to reject explicit
// invalid values that the zero-means-default normalization would absorb.
func ValidEps(eps float64) error {
	if eps <= 0 {
		return fmt.Errorf("eps must be > 0, got %g", eps)
	}
	return nil
}

func ValidK(k int) error {
	if k < 2 {
		return fmt.Errorf("k must be ≥ 2, got %d", k)
	}
	return nil
}

func ValidDelta(delta float64) error {
	if delta <= 0 || delta >= 1 {
		return fmt.Errorf("delta must be in (0,1), got %g", delta)
	}
	return nil
}

func (p Params) validate() error {
	if err := ValidEps(p.Eps); err != nil {
		return err
	}
	if err := ValidK(p.K); err != nil {
		return err
	}
	if err := ValidDelta(p.Delta); err != nil {
		return err
	}
	if p.Model != simul.CONGEST && p.Model != simul.LOCAL {
		return fmt.Errorf("unknown model %v", p.Model)
	}
	return nil
}

func (p Params) simConfig() simul.Config {
	return simul.Config{
		Model:      p.Model,
		Seed:       p.Seed,
		MaxRounds:  p.MaxRounds,
		BitsFactor: p.BitsFactor,
		Parallel:   p.Parallel,
	}
}

// ParseKind maps a Kind.String() value back to the Kind — the inverse used
// when results round-trip through a wire format (the cluster coordinator
// rebuilds registry.Results from worker responses).
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "is":
		return IS, nil
	case "matching":
		return Matching, nil
	case "nmis":
		return NMIS, nil
	default:
		return 0, fmt.Errorf("registry: unknown result kind %q (want is, matching or nmis)", s)
	}
}

// ParseModel maps a case-insensitive model name to a simul.Model.
func ParseModel(s string) (simul.Model, error) {
	switch strings.ToLower(s) {
	case "", "congest":
		return simul.CONGEST, nil
	case "local":
		return simul.LOCAL, nil
	default:
		return 0, fmt.Errorf("registry: unknown model %q (want congest or local)", s)
	}
}

// Cost summarizes the communication cost of a distributed execution; the
// facade re-exports it as repro.CostStats and cmd/reprod serializes it.
type Cost struct {
	Rounds         int `json:"rounds"`
	RealRounds     int `json:"real_rounds"`
	Messages       int `json:"messages"`
	Bits           int `json:"bits"`
	MaxMessageBits int `json:"max_msg_bits"`
	BitBudget      int `json:"bit_budget"`
}

func costOf(virtual int, m simul.Metrics) Cost {
	return Cost{
		Rounds:         virtual,
		RealRounds:     m.Rounds,
		Messages:       m.Messages,
		Bits:           m.TotalBits,
		MaxMessageBits: m.MaxMessageBits,
		BitBudget:      m.BitBudget,
	}
}

// Result is the uniform answer of any registered algorithm. InSet is set for
// IS/NMIS kinds, Edges for Matching; Uncovered only for NMIS.
type Result struct {
	Kind      Kind
	InSet     []bool
	Edges     []int
	Weight    int64
	Uncovered int
	Cost      Cost
	// Trace is the run's telemetry summary, attached to every live run (nil
	// on results deserialized from a peer that sent none). The engines
	// count unconditionally and the summary is built after the run, so it
	// cannot perturb an execution.
	Trace *obs.RoundTrace
}

// traceOf assembles the RoundTrace for an engine-backed result. Rounds is
// floored at 1: a completed run executed at least one (possibly
// communication-free) round in LOCAL-model terms, so downstream consumers
// can rely on rounds > 0.
func traceOf(virtual int, m simul.Metrics, memo agg.MemoStats) *obs.RoundTrace {
	rounds := m.Rounds
	if rounds < 1 {
		rounds = 1
	}
	return &obs.RoundTrace{
		Rounds:            rounds,
		VirtualRounds:     virtual,
		Messages:          int64(m.Messages),
		Bits:              int64(m.TotalBits),
		PeakRoundMessages: int64(m.PeakRoundMessages),
		PeakRoundBits:     int64(m.PeakRoundBits),
		PeakActive:        m.PeakActive,
		CompactMoves:      int64(m.CompactMoves),
		MemoHits:          memo.Hits,
		MemoMisses:        memo.Misses,
	}
}

// Size returns the independent-set cardinality or the matching size.
func (r *Result) Size() int {
	if r.Kind == Matching {
		return len(r.Edges)
	}
	n := 0
	for _, in := range r.InSet {
		if in {
			n++
		}
	}
	return n
}

// Spec describes one registered algorithm.
type Spec struct {
	Name string
	Kind Kind
	// Summary is a one-line human description (paper theorem included).
	Summary string
	// Params lists the Params fields this algorithm reads, for listings.
	Params []string
	run    func(g *graph.Graph, p Params) (*Result, error)
}

// Validate normalizes p and reports whether the spec can run with it.
func (s *Spec) Validate(p Params) error { return p.Normalized().validate() }

// Run executes the algorithm on g with normalized params. Every successful
// live run carries a Trace: engine-backed specs attach rich traces
// themselves; this wrapper backfills the rest (sequential and non-simulated
// algorithms) from the Cost summary.
func (s *Spec) Run(g *graph.Graph, p Params) (*Result, error) {
	p = p.Normalized()
	if err := p.validate(); err != nil {
		return nil, err
	}
	res, err := s.run(g, p)
	if err != nil {
		return nil, err
	}
	if res.Trace == nil {
		rounds := res.Cost.RealRounds
		if rounds < 1 {
			rounds = 1 // a completed sequential run counts as one LOCAL round
		}
		res.Trace = &obs.RoundTrace{
			Rounds:        rounds,
			VirtualRounds: res.Cost.Rounds,
			Messages:      int64(res.Cost.Messages),
			Bits:          int64(res.Cost.Bits),
		}
	}
	return res, nil
}

var specs = []*Spec{
	{
		Name:    "seq-maxis",
		Kind:    IS,
		Summary: "Algorithm 1: sequential local-ratio ∆-approximate MaxIS (§2.1)",
		Params:  []string{},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			in := core.SequentialLocalRatio(g, core.GreedyPick)
			return &Result{Kind: IS, InSet: in, Weight: g.SetWeight(in)}, nil
		},
	},
	{
		Name:    "maxis",
		Kind:    IS,
		Summary: "Algorithm 2: distributed ∆-approximate MaxIS, O(MIS·log W) rounds (Thm 2.3)",
		Params:  []string{"mis", "seed", "model"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := core.DistributedMaxIS(g, p.MIS, p.simConfig())
			if err != nil {
				return nil, err
			}
			return &Result{Kind: IS, InSet: res.InSet, Weight: res.Weight,
				Cost:  costOf(res.VirtualRounds, res.Metrics),
				Trace: traceOf(res.VirtualRounds, res.Metrics, res.Memo)}, nil
		},
	},
	{
		Name:    "maxis-det",
		Kind:    IS,
		Summary: "Algorithm 3: coloring + color-priority ∆-approximate MaxIS (§2.3)",
		Params:  []string{"seed", "model", "det_coloring"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := core.ColoringMaxIS(g, p.DeterministicColoring, p.simConfig())
			if err != nil {
				return nil, err
			}
			return &Result{Kind: IS, InSet: res.InSet, Weight: res.Weight,
				Cost:  costOf(res.VirtualRounds+res.ColoringRounds, res.Metrics),
				Trace: traceOf(res.VirtualRounds+res.ColoringRounds, res.Metrics, res.Memo)}, nil
		},
	},
	{
		Name:    "mwm2",
		Kind:    Matching,
		Summary: "2-approximate MWM: Algorithm 2 on L(G) via Theorem 2.8 (Thm 2.10)",
		Params:  []string{"mis", "seed", "model"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := core.DistributedMWM2(g, p.MIS, p.simConfig())
			if err != nil {
				return nil, err
			}
			return &Result{Kind: Matching, Edges: res.Edges, Weight: res.Weight,
				Cost:  costOf(res.VirtualRounds, res.Metrics),
				Trace: traceOf(res.VirtualRounds, res.Metrics, res.Memo)}, nil
		},
	},
	{
		Name:    "mwm2-det",
		Kind:    Matching,
		Summary: "2-approximate MWM: Algorithm 3 on L(G), deterministic reduction (Thm 2.10)",
		Params:  []string{"seed", "model"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := core.ColoringMWM2(g, p.simConfig())
			if err != nil {
				return nil, err
			}
			return &Result{Kind: Matching, Edges: res.Edges, Weight: res.Weight,
				Cost:  costOf(res.VirtualRounds+res.ColoringRounds, res.Metrics),
				Trace: traceOf(res.VirtualRounds+res.ColoringRounds, res.Metrics, res.Memo)}, nil
		},
	},
	{
		Name:    "fastmcm",
		Kind:    Matching,
		Summary: "(2+ε)-approximate MCM in O(log∆/loglog∆)-style rounds (Thm 3.2)",
		Params:  []string{"eps", "k", "seed", "model"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := fastmatch.MCM2Eps(g, p.Eps, p.K, p.simConfig())
			if err != nil {
				return nil, err
			}
			return &Result{Kind: Matching, Edges: res.Edges, Weight: res.Weight,
				Cost:  costOf(res.VirtualRounds, res.Metrics),
				Trace: traceOf(res.VirtualRounds, res.Metrics, res.Memo)}, nil
		},
	},
	{
		Name:    "fastmwm",
		Kind:    Matching,
		Summary: "(2+ε)-approximate MWM via weight bucketing + refinement (§B.1)",
		Params:  []string{"eps", "k", "seed", "model"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := fastmatch.MWM2Eps(g, p.Eps, p.K, p.simConfig())
			if err != nil {
				return nil, err
			}
			return &Result{Kind: Matching, Edges: res.Edges, Weight: res.Weight,
				Cost:  costOf(res.VirtualRounds, res.Metrics),
				Trace: traceOf(res.VirtualRounds, res.Metrics, res.Memo)}, nil
		},
	},
	{
		Name:    "oneeps",
		Kind:    Matching,
		Summary: "(1+ε)-approximate MCM via Hopcroft–Karp phases (Thm B.4, LOCAL)",
		Params:  []string{"eps", "k", "seed"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := augment.OneEpsLocal(g, augment.OneEpsParams{Eps: p.Eps, K: p.K}, rng.New(p.Seed))
			if err != nil {
				return nil, err
			}
			return matchingFromIDs(g, res.Matching, res.Rounds), nil
		},
	},
	{
		Name:    "oneeps-congest",
		Kind:    Matching,
		Summary: "(1+ε)-approximate MCM, CONGEST construction of Appendix B.3",
		Params:  []string{"eps", "k", "seed"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := augment.OneEpsCongest(g, augment.CongestOneEpsParams{Eps: p.Eps, K: p.K}, rng.New(p.Seed))
			if err != nil {
				return nil, err
			}
			return matchingFromIDs(g, res.Matching, res.Rounds), nil
		},
	},
	{
		Name:    "proposal",
		Kind:    Matching,
		Summary: "(2+ε)-approximate MCM via the Appendix B.4 proposal algorithm",
		Params:  []string{"eps", "k", "seed"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := fastmatch.Proposal(g, p.Eps, p.K, rng.New(p.Seed))
			if err != nil {
				return nil, err
			}
			return &Result{Kind: Matching, Edges: res.Edges, Weight: res.Weight,
				Cost: Cost{Rounds: res.VirtualRounds, RealRounds: res.VirtualRounds}}, nil
		},
	},
	{
		Name:    "nmis",
		Kind:    NMIS,
		Summary: "§3.1 nearly-maximal independent set with factor K, target δ (Thm 3.1)",
		Params:  []string{"k", "delta", "seed", "model"},
		run: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := nmis.Run(g, nmis.Params{K: p.K, Delta: p.Delta}, p.simConfig())
			if err != nil {
				return nil, err
			}
			in := res.InSetVector()
			return &Result{Kind: NMIS, InSet: in, Weight: g.SetWeight(in),
				Uncovered: res.UncoveredCount(),
				Cost:      costOf(res.VirtualRounds, res.Metrics),
				Trace:     traceOf(res.VirtualRounds, res.Metrics, res.Memo)}, nil
		},
	},
}

func matchingFromIDs(g *graph.Graph, edges []int, rounds int) *Result {
	var w int64
	for _, id := range edges {
		w += g.EdgeWeight(id)
	}
	return &Result{Kind: Matching, Edges: edges, Weight: w,
		Cost: Cost{Rounds: rounds, RealRounds: rounds}}
}

var byName = func() map[string]*Spec {
	m := make(map[string]*Spec, len(specs))
	for _, s := range specs {
		if _, dup := m[s.Name]; dup {
			panic("registry: duplicate algorithm " + s.Name)
		}
		m[s.Name] = s
	}
	return m
}()

// Get returns the spec registered under name.
func Get(name string) (*Spec, bool) {
	s, ok := byName[name]
	return s, ok
}

// Register adds a runnable spec under name at runtime and returns a function
// that removes it again. It exists for tests that need a controllable
// algorithm — e.g. one that parks on a channel until the test releases it,
// replacing timing-based "big graph ≈ slow job" blockers. The registry
// tables take no lock, so Register/unregister must not race concurrent
// lookups: call them while no jobs are being submitted. Duplicate names
// panic, like duplicates in the static table.
func Register(name string, kind Kind, run func(g *graph.Graph, p Params) (*Result, error)) func() {
	if _, dup := byName[name]; dup {
		panic("registry: duplicate algorithm " + name)
	}
	s := &Spec{Name: name, Kind: kind, Summary: "runtime-registered (testing)", run: run}
	specs = append(specs, s)
	byName[name] = s
	return func() {
		delete(byName, name)
		specs = slices.DeleteFunc(specs, func(x *Spec) bool { return x == s })
	}
}

// All returns every registered spec, sorted by name.
func All() []*Spec {
	out := make([]*Spec, len(specs))
	copy(out, specs)
	slices.SortFunc(out, func(a, b *Spec) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Names returns every registered algorithm name, sorted.
func Names() []string {
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.Name)
	}
	slices.Sort(names)
	return names
}

// Fingerprint returns a stable content hash of g (topology plus weights),
// used to key the service's result cache. It hashes the graph's CSR arrays
// and weight vectors directly in binary — no text encoding pass — so
// fingerprinting large graphs costs one linear scan.
func Fingerprint(g *graph.Graph) string {
	offsets, neighbors, edgeIDs := g.CSR()
	buf := make([]byte, 0, 16+4*(len(offsets)+len(neighbors)+len(edgeIDs))+8*(g.N()+g.M()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.N()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.M()))
	for _, arr := range [][]int32{offsets, neighbors, edgeIDs} {
		for _, x := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	for v := 0; v < g.N(); v++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NodeWeight(v)))
	}
	for id := 0; id < g.M(); id++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.EdgeWeight(id)))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:16])
}
