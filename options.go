package repro

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/simul"
)

// Model selects the communication model an execution is validated against.
type Model = simul.Model

// Communication models (re-exported).
const (
	CONGEST = simul.CONGEST
	LOCAL   = simul.LOCAL
)

// MIS black-box names for WithMIS.
const (
	MISLuby     = "luby"
	MISGhaffari = "ghaffari"
	MISGreedyID = "greedyid"
)

type config struct {
	sim         simul.Config
	misName     string
	k           int
	eps         float64
	delta       float64
	detColoring bool
	// *Set record that the caller passed the value explicitly, so invalid
	// explicit values (e.g. WithEps(0)) are rejected instead of being
	// absorbed by the registry's zero-means-default normalization.
	epsSet, kSet, deltaSet bool
}

// validateExplicit rejects explicitly-set invalid parameter values using the
// registry's shared bounds.
func (c config) validateExplicit() error {
	if c.epsSet {
		if err := registry.ValidEps(c.eps); err != nil {
			return fmt.Errorf("repro: %w", err)
		}
	}
	if c.kSet {
		if err := registry.ValidK(c.k); err != nil {
			return fmt.Errorf("repro: %w", err)
		}
	}
	if c.deltaSet {
		if err := registry.ValidDelta(c.delta); err != nil {
			return fmt.Errorf("repro: %w", err)
		}
	}
	return nil
}

// Option configures an algorithm invocation.
type Option func(*config)

func buildConfig(opts []Option) config {
	// Parameter fields stay zero unless an option sets them: the registry's
	// Params.Normalized is the single source of default values (eps 0.5,
	// k 2, delta 0.1, MIS luby).
	cfg := config{sim: simul.Config{Model: simul.CONGEST}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// params maps the facade configuration onto the registry's uniform Params,
// the single dispatch currency shared with cmd/* and internal/service.
func (c config) params() registry.Params {
	return registry.Params{
		Eps:                   c.eps,
		K:                     c.k,
		Delta:                 c.delta,
		MIS:                   c.misName,
		Model:                 c.sim.Model,
		Seed:                  c.sim.Seed,
		MaxRounds:             c.sim.MaxRounds,
		BitsFactor:            c.sim.BitsFactor,
		Parallel:              c.sim.Parallel,
		DeterministicColoring: c.detColoring,
	}
}

// WithSeed fixes the randomness seed; equal seeds reproduce executions
// exactly, including across the sequential and parallel engines.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.sim.Seed = seed }
}

// WithModel selects CONGEST (default; message sizes are enforced) or LOCAL.
func WithModel(m Model) Option {
	return func(c *config) { c.sim.Model = m }
}

// WithMIS selects the MIS black box for Algorithm 2 (MISLuby, MISGhaffari or
// MISGreedyID).
func WithMIS(name string) Option {
	return func(c *config) { c.misName = name }
}

// WithK sets the probability factor K of the §3/§B algorithms (default 2;
// the paper's Θ(log^0.1 ∆)).
func WithK(k int) Option {
	return func(c *config) { c.k, c.kSet = k, true }
}

// WithEps sets the ε of the (1+ε)/(2+ε) algorithms for Run (default 0.5).
// The typed facade functions (FastMCM, OneEpsMCM, …) take ε directly and
// ignore this option.
func WithEps(eps float64) Option {
	return func(c *config) { c.eps, c.epsSet = eps, true }
}

// WithDelta sets the failure target δ of the nearly-maximal independent set
// for Run (default 0.1). NearlyMaximalIS takes δ directly.
func WithDelta(delta float64) Option {
	return func(c *config) { c.delta, c.deltaSet = delta, true }
}

// WithParallel runs node automata on a goroutine worker pool; results are
// identical to the sequential engine for the same seed.
func WithParallel() Option {
	return func(c *config) { c.sim.Parallel = true }
}

// WithMaxRounds overrides the engine's round-limit failsafe.
func WithMaxRounds(r int) Option {
	return func(c *config) { c.sim.MaxRounds = r }
}

// WithBitsFactor overrides the CONGEST per-message budget factor c in
// c·⌈log₂(n+1)⌉ (default 16).
func WithBitsFactor(f int) Option {
	return func(c *config) { c.sim.BitsFactor = f }
}

// WithDeterministicColoring makes MaxISDeterministic use the Linial color
// reduction instead of the randomized palette coloring, yielding a fully
// deterministic pipeline (at O(∆² log² ∆) extra rounds; see DESIGN.md §3).
func WithDeterministicColoring() Option {
	return func(c *config) { c.detColoring = true }
}
