package simul

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// withProcs runs the body with GOMAXPROCS temporarily raised so the tiled
// worker pool actually runs multi-worker even on single-CPU CI machines.
func withProcs(t *testing.T, procs int, body func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	body()
}

func TestTileByDegree(t *testing.T) {
	star := graph.Star(100) // center has degree 99: one heavy node
	offsets, _, _ := star.CSR()

	t.Run("single-worker-single-tile", func(t *testing.T) {
		tiles := tileByDegree(offsets, star.N(), 1, 64)
		if len(tiles) != 1 || tiles[0].lo != 0 || tiles[0].hi != star.N() {
			t.Fatalf("sequential tiling = %+v, want one [0,%d) tile", tiles, star.N())
		}
	})
	t.Run("partition", func(t *testing.T) {
		for _, tileArcs := range []int{1, 16, 64, 1 << 20} {
			tiles := tileByDegree(offsets, star.N(), 4, tileArcs)
			if len(tiles) < 4 {
				t.Fatalf("tileArcs=%d: %d tiles, want ≥ workers", tileArcs, len(tiles))
			}
			if len(tiles) > star.N() {
				t.Fatalf("tileArcs=%d: %d tiles for %d nodes", tileArcs, len(tiles), star.N())
			}
			lo := 0
			for i, s := range tiles {
				if s.lo != lo || s.hi < s.lo {
					t.Fatalf("tileArcs=%d: tile %d = [%d,%d) does not continue from %d", tileArcs, i, s.lo, s.hi, lo)
				}
				lo = s.hi
			}
			if lo != star.N() {
				t.Fatalf("tileArcs=%d: tiles end at %d, want %d", tileArcs, lo, star.N())
			}
		}
	})
	t.Run("empty-graph", func(t *testing.T) {
		g := mustBuild(t, 0)
		off, _, _ := g.CSR()
		tiles := tileByDegree(off, 0, 4, 64)
		total := 0
		for _, s := range tiles {
			total += s.hi - s.lo
		}
		if total != 0 {
			t.Fatalf("empty graph tiles cover %d nodes", total)
		}
	})
}

func mustBuild(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.NewBuilder(n).Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runDigest runs the randomized digest automaton from
// TestDeterminismAcrossEngines under an arbitrary engine config.
func runDigest(t *testing.T, g *graph.Graph, cfg Config) []any {
	t.Helper()
	res, err := Run(g, cfg, func(v int) Automaton {
		return automatonFunc(func(ctx *Context, inbox []Envelope) {
			if ctx.Round() < 5 {
				ctx.Broadcast(intMsg{v: ctx.Rand().Intn(1000), bits: 10})
				return
			}
			sum := 0
			for _, e := range inbox {
				sum = sum*31 + e.Msg.(intMsg).v + e.From
			}
			ctx.Halt(sum)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Outputs
}

// TestDeterminismAcrossTileConfigs is the engine-scale-up contract: the
// sequential engine, the tiled work-stealing engine (forced multi-worker via
// GOMAXPROCS, with tiles small enough that every phase crosses many tile
// boundaries) must produce bit-identical outputs for a fixed seed.
func TestDeterminismAcrossTileConfigs(t *testing.T) {
	g := graph.GNP(400, 0.05, rng.New(17))
	want := runDigest(t, g, Config{Seed: 99})

	configs := map[string]Config{
		"par-default-tiles": {Seed: 99, Parallel: true},
		"par-tiny-tiles":    {Seed: 99, Parallel: true, TileArcs: 64},
		"par-one-arc-tiles": {Seed: 99, Parallel: true, TileArcs: 1},
	}
	withProcs(t, 4, func() {
		for name, cfg := range configs {
			if got := runDigest(t, g, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s outputs differ from sequential baseline", name)
			}
		}
	})
}

// TestTiledMetricsMatchSequential pins the commutative-fold claim: message
// and bit counters must not depend on which worker ran which tile.
func TestTiledMetricsMatchSequential(t *testing.T) {
	g := graph.GNP(300, 0.04, rng.New(31))
	run := func(cfg Config) Metrics {
		res, err := Run(g, cfg, func(v int) Automaton {
			return automatonFunc(func(ctx *Context, inbox []Envelope) {
				if ctx.Round() < 3 {
					ctx.Broadcast(intMsg{v: ctx.ID(), bits: 12})
					return
				}
				ctx.Halt(nil)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	want := run(Config{Seed: 7})
	withProcs(t, 4, func() {
		for _, tileArcs := range []int{0, 64, 1} {
			got := run(Config{Seed: 7, Parallel: true, TileArcs: tileArcs})
			if got != want {
				t.Fatalf("tileArcs=%d: metrics %+v differ from sequential %+v", tileArcs, got, want)
			}
		}
	})
}

// TestTileArcsValidation: nonsense TileArcs values fall back to the default
// rather than failing or degenerating.
func TestTileArcsValidation(t *testing.T) {
	g := graph.Path(50)
	withProcs(t, 4, func() {
		for _, tileArcs := range []int{-1, 0} {
			res, err := Run(g, Config{Parallel: true, TileArcs: tileArcs}, func(v int) Automaton {
				return automatonFunc(func(ctx *Context, inbox []Envelope) { ctx.Halt(ctx.ID()) })
			})
			if err != nil {
				t.Fatalf("TileArcs=%d: %v", tileArcs, err)
			}
			if len(res.Outputs) != g.N() {
				t.Fatalf("TileArcs=%d: %d outputs", tileArcs, len(res.Outputs))
			}
		}
	})
}
