// Package nmis implements the paper's modified nearly-maximal independent set
// algorithm (§3.1, Appendix B.1) — the key ingredient of the time-optimal
// matching approximations.
//
// Every node v holds a marking probability p_t(v), initially 1/K. With
// d_t(v) = Σ_{u∈N(v)} p_t(u) the effective degree,
//
//	p_{t+1}(v) = p_t(v)/K          if d_t(v) ≥ 2
//	p_{t+1}(v) = min(K·p_t(v), 1/K) otherwise.
//
// Each iteration v is marked with probability p_t(v); a marked node with no
// marked neighbor joins the set and removes its neighborhood. Theorem 3.1:
// after β(log∆/log K + K²·log(1/δ)) iterations each node fails to be covered
// with probability at most δ, even against adversarial randomness outside
// its 2-neighborhood. The paper sets K = Θ(log^0.1 ∆); K is a parameter here
// (it is ≤ 2 for every ∆ a simulation can hold, and experiment E11 sweeps
// it).
//
// The algorithm is a local aggregation algorithm, so running it on the line
// graph via agg.RunLine yields the nearly-maximal matching behind the
// (2+ε)-approximation of Theorem 3.2.
//
// Layer (DESIGN.md §2): nmis is part of the §3/§B algorithm layer, above
// internal/agg, below internal/fastmatch and internal/registry.
//
// Concurrency and ownership: Run/RunOnLine are synchronous runs on the
// calling goroutine; input graphs are read-only and shareable, Results are
// owned by the caller.
package nmis

import (
	"fmt"
	"math"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/simul"
)

// Outcome of one node after the fixed round budget.
type Outcome int

const (
	// Uncovered: not in the set and no neighbor in the set (probability ≤ δ
	// by Theorem 3.1).
	Uncovered Outcome = iota
	// InSet: joined the independent set.
	InSet
	// Covered: a neighbor joined the set.
	Covered
)

func (o Outcome) String() string {
	switch o {
	case InSet:
		return "InSet"
	case Covered:
		return "Covered"
	default:
		return "Uncovered"
	}
}

// Params configures the algorithm.
type Params struct {
	// K is the probability adjustment factor (≥ 2; the paper's
	// Θ(log^0.1 ∆)).
	K int
	// Delta is the failure probability target δ ∈ (0, 1).
	Delta float64
	// Beta is the constant β in the round budget; 0 means the default 3.
	Beta int
	// MaxDegree is ∆ of the (virtual) graph the machine will run on.
	MaxDegree int
}

func (p Params) validate() error {
	if p.K < 2 {
		return fmt.Errorf("nmis: K must be ≥ 2, got %d", p.K)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("nmis: δ must be in (0,1), got %v", p.Delta)
	}
	return nil
}

// Rounds returns the Theorem 3.1 round budget
// β(log∆/logK + K²·log(1/δ)).
func (p Params) Rounds() int {
	beta := p.Beta
	if beta == 0 {
		beta = 3
	}
	logDelta := math.Log(float64(p.MaxDegree) + 2)
	logK := math.Log(float64(p.K))
	r := float64(beta) * (logDelta/logK + float64(p.K*p.K)*math.Log(1/p.Delta))
	return int(math.Ceil(r)) + 1
}

// Machine states.
const (
	stCompeting = 0
	stInSet     = 1 // announcing membership; halts next round
	stCovered   = 2
)

// machine implements the NMIS as an agg.Machine.
// Data: [state, pNum (fixed-point probability), marked].
type machine struct {
	params Params
	rounds int
	pCap   float64 // 1/K
	shift  uint    // fixed-point scale, set from n at Init (CONGEST: O(log n) bits)
}

// NewMachine returns a builder for NMIS machines with the given parameters.
func NewMachine(params Params) (func(v int) agg.Machine, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	rounds := params.Rounds()
	return func(v int) agg.Machine {
		return &machine{params: params, rounds: rounds, pCap: 1 / float64(params.K)}
	}, nil
}

func (m *machine) Fields() int { return 3 }

func (m *machine) pToFix(p float64) int64 { return int64(p * float64(int64(1)<<m.shift)) }

// fixShiftFor picks a fixed-point precision that keeps the probability field
// within the O(log n)-bit CONGEST budget while leaving enough resolution for
// the K-factor dynamics. All nodes derive it from the global n.
func fixShiftFor(n int) uint {
	s := 4 * uint(simul.BitsForRange(int64(n)))
	if s < 10 {
		s = 10
	}
	if s > 30 {
		s = 30
	}
	return s
}

func (m *machine) Init(info *agg.NodeInfo, d agg.Data) {
	m.shift = fixShiftFor(info.N)
	d[0] = stCompeting
	d[1] = m.pToFix(m.pCap)
	d[2] = 0
	m.draw(info, d)
}

func (m *machine) draw(info *agg.NodeInfo, d agg.Data) {
	p := float64(d[1]) / float64(int64(1)<<m.shift)
	if info.Rand.Bernoulli(p) {
		d[2] = 1
	} else {
		d[2] = 0
	}
}

// queryPlan is the machine's fixed query set. It depends on nothing but the
// data layout, so one package-level plan serves every node and round.
var queryPlan = [3]agg.Query{
	// Marked competing neighbor? (the mark field is 0 or 1)
	{Agg: agg.Or, Guard: agg.Where(agg.Eq(0, stCompeting), agg.Eq(2, 1)), Value: agg.Constant(1)},
	// Effective degree.
	{Agg: agg.Sum, Guard: agg.Where(agg.Eq(0, stCompeting)), Value: agg.Field(1)},
	// Neighbor joined?
	{Agg: agg.Or, Guard: agg.Where(agg.Eq(0, stInSet)), Value: agg.Constant(1)},
}

func (m *machine) Queries(info *agg.NodeInfo, t int, data agg.Data, qs []*agg.Query) []*agg.Query {
	return agg.AppendPlan(qs, queryPlan[:])
}

func (m *machine) Update(info *agg.NodeInfo, t int, data agg.Data, results []int64) (bool, any) {
	if data[0] == stInSet {
		return true, InSet // membership announced last round
	}
	neighborMarked, effDeg, neighborJoined := results[0], results[1], results[2]
	if neighborJoined != 0 {
		return true, Covered
	}
	if data[2] != 0 && neighborMarked == 0 {
		data[0] = stInSet
		data[1] = 0
		data[2] = 0
		return false, nil // stay visible one round to announce
	}
	if t >= m.rounds-1 {
		// Budget exhausted without being covered: Theorem 3.1 bounds the
		// probability of reaching here by δ.
		return true, Uncovered
	}
	// Probability adjustment (§3.1).
	p := float64(data[1]) / float64(int64(1)<<m.shift)
	if effDeg >= 2<<m.shift {
		p /= float64(m.params.K)
	} else {
		p = math.Min(p*float64(m.params.K), m.pCap)
	}
	// Keep a floor so fixed-point truncation cannot zero the probability.
	if floor := 1.0 / float64(int64(1)<<(m.shift-2)); p < floor {
		p = floor
	}
	data[1] = m.pToFix(p)
	m.draw(info, data)
	return false, nil
}

// Result of an NMIS run.
type Result struct {
	Outcomes      []Outcome
	VirtualRounds int
	Metrics       simul.Metrics
	// Memo carries the line runtime's exchange-folding hit/miss counts
	// (zero under Run, which uses the direct runtime).
	Memo agg.MemoStats
}

// InSetVector returns the indicator of set membership.
func (r *Result) InSetVector() []bool {
	out := make([]bool, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o == InSet
	}
	return out
}

// UncoveredCount returns how many virtual nodes finished uncovered.
func (r *Result) UncoveredCount() int {
	c := 0
	for _, o := range r.Outcomes {
		if o == Uncovered {
			c++
		}
	}
	return c
}

// Run executes the NMIS on g. If params.MaxDegree is 0 it is filled from g.
func Run(g *graph.Graph, params Params, cfg simul.Config) (*Result, error) {
	if params.MaxDegree == 0 {
		params.MaxDegree = g.MaxDegree()
	}
	build, err := NewMachine(params)
	if err != nil {
		return nil, err
	}
	res, err := agg.RunDirect(g, cfg, build)
	if err != nil {
		return nil, err
	}
	return toResult(res, g.N())
}

// RunOnLine executes the NMIS on L(g) through the Theorem 2.8 simulation,
// producing a nearly-maximal matching (outcomes indexed by edge ID). If
// params.MaxDegree is 0 it is filled with ∆(L(g)) ≤ 2∆(g)-2.
func RunOnLine(g *graph.Graph, params Params, cfg simul.Config) (*Result, error) {
	if params.MaxDegree == 0 {
		params.MaxDegree = g.MaxLineDegree()
	}
	build, err := NewMachine(params)
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
		Outcomes:      make([]Outcome, n),
		VirtualRounds: res.VirtualRounds,
		Metrics:       res.Metrics,
		Memo:          res.Memo,
	}
	for i, o := range res.Outputs {
		oc, ok := o.(Outcome)
		if !ok {
			return nil, fmt.Errorf("nmis: node %d output %v, want Outcome", i, o)
		}
		out.Outcomes[i] = oc
	}
	return out, nil
}
