// Command distmatch runs any of the repository's distributed approximation
// algorithms on a graph read from a file (or generated on the fly) and prints
// the solution quality and communication costs. Algorithm and generator
// dispatch both go through internal/registry, so the accepted names are
// exactly those of cmd/sweep, cmd/reprod and repro.Run.
//
// Usage:
//
//	distmatch -algo maxis   -in graph.txt
//	distmatch -algo mwm2    -gen gnp -n 64 -p 0.1 -maxw 100
//	distmatch -algo fastmcm -gen regular -n 128 -d 8 -eps 0.5
//	distmatch -algo nmis    -gen caterpillar -spine 16 -legs 8 -delta 0.05
//	distmatch -list
//
// The graph file format is the one produced by repro.WriteGraph:
//
//	n m
//	w(0) … w(n-1)
//	u v w     (per edge)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/registry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distmatch: ")
	algo := flag.String("algo", "maxis", "algorithm: "+strings.Join(registry.Names(), ", "))
	list := flag.Bool("list", false, "list algorithms and generators, then exit")
	in := flag.String("in", "", "input graph file (omit to generate)")
	gen := flag.String("gen", "gnp", "generator when -in is absent: "+strings.Join(registry.GeneratorNames(), ", "))
	n := flag.Int("n", 64, "nodes for generated graphs (left side for bipartite)")
	n2 := flag.Int("n2", 32, "right-side nodes for bipartite graphs")
	p := flag.Float64("p", 0.1, "edge probability for gnp/bipartite")
	d := flag.Int("d", 4, "degree for regular graphs")
	rows := flag.Int("rows", 8, "rows for grid graphs")
	cols := flag.Int("cols", 8, "cols for grid graphs")
	spine := flag.Int("spine", 16, "spine length for caterpillar graphs")
	legs := flag.Int("legs", 4, "legs per spine node for caterpillar graphs")
	maxw := flag.Int64("maxw", 64, "max random node/edge weight (1 = unweighted)")
	eps := flag.Float64("eps", 0.5, "ε for the (1+ε)/(2+ε) algorithms")
	k := flag.Int("k", 2, "probability factor K of the §3/§B algorithms")
	delta := flag.Float64("delta", 0.1, "failure target δ for nmis")
	misName := flag.String("mis", "luby", "MIS black box: luby, ghaffari, greedyid")
	model := flag.String("model", "congest", "communication model: congest or local")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	if *list {
		printListing()
		return
	}

	spec, ok := registry.Get(*algo)
	if !ok {
		log.Fatalf("unknown algorithm %q (have: %s)", *algo, strings.Join(registry.Names(), ", "))
	}
	// A flag value is always explicit: reject invalid ones here rather than
	// letting the registry's zero-means-default normalization absorb them.
	// The flag defaults are all valid, so an invalid value was user-typed.
	for _, err := range []error{registry.ValidEps(*eps), registry.ValidK(*k), registry.ValidDelta(*delta)} {
		if err != nil {
			log.Fatal(err)
		}
	}
	mdl, err := registry.ParseModel(*model)
	if err != nil {
		log.Fatal(err)
	}

	g, err := loadGraph(*in, *gen, registry.GenParams{
		N: *n, N2: *n2, D: *d, P: *p,
		Rows: *rows, Cols: *cols, Spine: *spine, Legs: *legs,
		Seed: *seed, MaxW: *maxw,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d ∆=%d W=%d\n", g.N(), g.M(), g.MaxDegree(), g.MaxNodeWeight())

	res, err := spec.Run(g, registry.Params{
		Eps: *eps, K: *k, Delta: *delta,
		MIS: *misName, Model: mdl, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	switch res.Kind {
	case registry.IS:
		fmt.Printf("independent set: size=%d weight=%d\n", res.Size(), res.Weight)
	case registry.Matching:
		fmt.Printf("matching: size=%d weight=%d\n", res.Size(), res.Weight)
	case registry.NMIS:
		fmt.Printf("nearly-maximal set: size=%d weight=%d uncovered=%d\n", res.Size(), res.Weight, res.Uncovered)
	}
	c := res.Cost
	fmt.Printf("rounds=%d real_rounds=%d messages=%d bits=%d max_msg_bits=%d budget=%d\n",
		c.Rounds, c.RealRounds, c.Messages, c.Bits, c.MaxMessageBits, c.BitBudget)
}

func loadGraph(in, gen string, p registry.GenParams) (*graph.Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Decode(f, graph.ReadOptions{})
	}
	gspec, ok := registry.GetGenerator(gen)
	if !ok {
		return nil, fmt.Errorf("unknown generator %q (have: %s)", gen, strings.Join(registry.GeneratorNames(), ", "))
	}
	return gspec.Build(p)
}

func printListing() {
	fmt.Println("algorithms:")
	for _, s := range registry.All() {
		fmt.Printf("  %-15s [%s] %s\n", s.Name, s.Kind, s.Summary)
	}
	fmt.Println("generators:")
	for _, s := range registry.Generators() {
		fmt.Printf("  %-15s %s (params: %s)\n", s.Name, s.Summary, strings.Join(s.Params, ", "))
	}
}
