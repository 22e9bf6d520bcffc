package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/tenant"
)

// workload is one traffic mix. The seed reaches only gen, which builds the
// inputs; the server sees nothing but those inputs.
type workload struct {
	name string
	// clients is how many closed-loop client goroutines drive the phase
	// (one per tenant in interactive).
	clients int
	// gen builds the inputs from the seed: graphs, reference bounds, keys.
	gen func(seed uint64, dir string) (*inputs, error)
	// setUp starts the stack and loads it; it is the timed set-up.
	setUp func(in *inputs, e *env) error
	// next is client c's k-th request of the timed phase and its cell count;
	// fixed marks the requests whose exact cost counts are reported.
	next func(in *inputs, c, k int) (req httpapi.BatchRequest, cells int, fixed bool)
	// replayStride, when positive, replays every replayStride-th fixed cell
	// through registry.Spec.Run after the phase (cluster ≡ single node).
	replayStride int
	// rssCells is how many cells the untraced phase delivers before
	// peak_rss_mb is read. The servers keep finished batches for polling,
	// so memory grows with the cells served; reading the peak after a fixed
	// amount of work keeps it from following the host's speed.
	rssCells int
}

// inputs is what gen produced: the graphs to upload, by name, and for
// interactive the tenant keys and the key file.
type inputs struct {
	graphs  []input
	refs    map[string]*refGraph
	keys    []string
	keyFile string
	hot     []httpapi.BatchCell
}

type input struct {
	name string
	rgb1 []byte
}

func (in *inputs) add(name string, g *graph.Graph) error {
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, g); err != nil {
		return err
	}
	in.graphs = append(in.graphs, input{name: name, rgb1: buf.Bytes()})
	in.refs[name] = newRefGraph(g)
	return nil
}

// generate builds one seeded graph with a registry generator.
func generate(gen string, p registry.GenParams) (*graph.Graph, error) {
	spec, ok := registry.GetGenerator(gen)
	if !ok {
		return nil, fmt.Errorf("no generator %q", gen)
	}
	return spec.Build(p)
}

// smallGraphs builds count seeded gnp graphs with edge probability 0.1 and
// weights in [1, 64]. The node counts step evenly from minN to maxN, so the
// seed changes each graph's edges but not the workload's size.
func smallGraphs(in *inputs, r *rand.Rand, count, minN, maxN int) error {
	for i := 0; i < count; i++ {
		n := minN
		if count > 1 {
			n += (maxN - minN) * i / (count - 1)
		}
		g, err := generate("gnp", registry.GenParams{N: n, P: 0.1, Seed: r.Uint64(), MaxW: 64})
		if err != nil {
			return err
		}
		if err := in.add(fmt.Sprintf("g%d", i), g); err != nil {
			return err
		}
	}
	return nil
}

func newInputs() *inputs { return &inputs{refs: make(map[string]*refGraph)} }

func (in *inputs) names() []string {
	names := make([]string, len(in.graphs))
	for i, g := range in.graphs {
		names[i] = g.name
	}
	return names
}

func seeded(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5e7ebe7c4)) }

// Workload sizes. heavyNodes keeps a heavy batch near a tenth of a second,
// so a phase holds a hundred or more batches and ends close to --seconds,
// while the engine still holds more than 95% of the wall time; at n = 320
// the peak RSS, and to a lesser degree the CPU time per cell, followed the
// host's load more. The engine's work differs from graph to graph, so the
// batches rotate over heavyGraphs graphs to average that out within a run
// and across seeds.
// The fleet spreads 128 equal-sized graphs over the ring: the busiest worker
// sets a batch's time, and with few graphs its share swings with each seed's
// fingerprints (8 graphs split anywhere from 4/4 to 7/1), which would drown
// any change in the run-to-run spread.
const (
	heavyNodes   = 128
	heavyGraphs  = 16
	heavySeeds   = 4
	hotCells     = 32
	fleetWorkers = 2
	fleetGraphs  = 128
	fleetNodes   = 64
	fleetSeeds   = 8
)

var (
	heavyAlgos       = []string{"maxis", "maxis-det", "mwm2", "mwm2-det", "fastmwm"}
	interactiveAlgos = []string{"maxis", "maxis-det", "fastmcm", "nmis", "proposal"}
	fleetAlgos       = []string{"maxis-det", "nmis", "proposal", "fastmcm"}
)

// heavyCells: one in-memory node, weighted gnp-sparse graphs, batches of the
// five heavy algorithms × 4 fresh seeds on one graph each, streamed back as
// RBS1.
var heavyCells = &workload{
	name:     "heavy-cells",
	clients:  1,
	rssCells: 1200,
	gen: func(seed uint64, _ string) (*inputs, error) {
		in := newInputs()
		r := seeded(seed)
		for i := 0; i < heavyGraphs; i++ {
			g, err := generate("gnp-sparse", registry.GenParams{
				N: heavyNodes, P: 8 / float64(heavyNodes-1), Seed: r.Uint64(), MaxW: 1 << 16})
			if err != nil {
				return nil, err
			}
			if err := in.add(fmt.Sprintf("heavy-%d", i), g); err != nil {
				return nil, err
			}
		}
		return in, nil
	},
	setUp: func(in *inputs, e *env) error {
		n, err := startNode(nodeConfig{})
		if err != nil {
			return err
		}
		e.node = n
		e.addClient(n.front.url(), "")
		return e.upload(context.Background(), 0, in.graphs)
	},
	next: func(in *inputs, _, k int) (httpapi.BatchRequest, int, bool) {
		seeds := make([]uint64, heavySeeds)
		for i := range seeds {
			seeds[i] = uint64(heavySeeds*k + i + 1)
		}
		return httpapi.BatchRequest{Graphs: []string{in.graphs[k%len(in.graphs)].name}, Algos: heavyAlgos, Seeds: seeds},
			len(heavyAlgos) * heavySeeds, k == 0
	},
}

// interactive: one journaled node with two tenants; each client POSTs
// one-cell batches in a closed loop, two hot-set cells (cache hits) to each
// fresh seed (an engine run, a cache insert and a WAL record).
var interactive = &workload{
	name:     "interactive",
	clients:  2,
	rssCells: 4000,
	gen: func(seed uint64, dir string) (*inputs, error) {
		in := newInputs()
		r := seeded(seed)
		if err := smallGraphs(in, r, 8, 48, 96); err != nil {
			return nil, err
		}
		var keyFile bytes.Buffer
		for c := 0; c < 2; c++ {
			key := fmt.Sprintf("servebench-%d-%016x", c, r.Uint64())
			in.keys = append(in.keys, key)
			fmt.Fprintf(&keyFile, "tenant-%d %s\n", c, tenant.HashKey(key))
		}
		in.keyFile = filepath.Join(dir, "keys.conf")
		if err := os.WriteFile(in.keyFile, keyFile.Bytes(), 0o600); err != nil {
			return nil, err
		}
		// Distinct (graph, algorithm) pairs: i%8 and i%5 repeat only after 40.
		for i := 0; i < hotCells; i++ {
			in.hot = append(in.hot, httpapi.BatchCell{
				Graph: in.graphs[i%len(in.graphs)].name, Algo: interactiveAlgos[i%len(interactiveAlgos)],
				Params: &httpapi.ParamsRequest{Seed: uint64(i + 1)}})
		}
		return in, nil
	},
	setUp: func(in *inputs, e *env) error {
		dir, err := os.MkdirTemp(e.work, "wal-")
		if err != nil {
			return err
		}
		e.dirs = append(e.dirs, dir)
		kr, err := tenant.Load(in.keyFile)
		if err != nil {
			return err
		}
		n, err := startNode(nodeConfig{walDir: dir, keyring: kr})
		if err != nil {
			return err
		}
		e.node = n
		ctx := context.Background()
		for c, key := range in.keys {
			e.addClient(n.front.url(), key)
			if err := e.upload(ctx, c, in.graphs); err != nil {
				return err
			}
		}
		return e.warm(ctx, httpapi.BatchRequest{Cells: in.hot, TraceID: "warm-hot-set"}, len(in.hot))
	},
	next: func(in *inputs, c, k int) (httpapi.BatchRequest, int, bool) {
		// Two hot requests per fresh one: with an even mix the median
		// request would sit on the seam between the hit and the miss
		// latencies and jump between them from run to run.
		var cell httpapi.BatchCell
		if k%3 != 2 {
			cell = in.hot[(2*(k/3)+k%3+c*hotCells/2)%hotCells]
		} else {
			i := k / 3
			cell = httpapi.BatchCell{
				Graph: in.graphs[i%len(in.graphs)].name, Algo: interactiveAlgos[i%len(interactiveAlgos)],
				Params: &httpapi.ParamsRequest{Seed: uint64(1<<20 + c<<28 + k)}}
		}
		return httpapi.BatchRequest{Cells: []httpapi.BatchCell{cell}}, 1, k < 64
	},
}

// fleetSweep: a coordinator over two one-executor workers; batches of
// 128 graphs × 4 algorithms × 8 fresh seeds, streamed from the coordinator.
var fleetSweep = &workload{
	name:     "fleet-sweep",
	clients:  1,
	rssCells: 16384, // four batches
	gen: func(seed uint64, _ string) (*inputs, error) {
		in := newInputs()
		return in, smallGraphs(in, seeded(seed), fleetGraphs, fleetNodes, fleetNodes)
	},
	setUp: func(in *inputs, e *env) error {
		f, err := startFleet(fleetWorkers)
		if err != nil {
			return err
		}
		e.fleet = f
		e.addClient(f.front.url(), "")
		ctx := context.Background()
		if err := e.upload(ctx, 0, in.graphs); err != nil {
			return err
		}
		// One seed-0 cell per graph makes the coordinator ship every graph
		// to its worker; timed batches use seeds from 1 on.
		return e.warm(ctx, httpapi.BatchRequest{Graphs: in.names(), Algos: fleetAlgos[:1], Seeds: []uint64{0},
			TraceID: "warm-upload"}, len(in.graphs))
	},
	next: func(in *inputs, _, k int) (httpapi.BatchRequest, int, bool) {
		// Each batch lists the graphs in its own order. The stream is index
		// ordered, so a cell's latency depends on where its graph's worker
		// stands in the ring order; varying the order batch by batch averages
		// that out within a run instead of fixing it per seed.
		names := in.names()
		seeded(uint64(k)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		seeds := make([]uint64, fleetSeeds)
		for i := range seeds {
			seeds[i] = uint64(fleetSeeds*k + i + 1)
		}
		return httpapi.BatchRequest{Graphs: names, Algos: fleetAlgos, Seeds: seeds},
			len(names) * len(fleetAlgos) * fleetSeeds, k == 0
	},
	replayStride: 64,
}

var workloads = map[string]*workload{
	heavyCells.name:  heavyCells,
	interactive.name: interactive,
	fleetSweep.name:  fleetSweep,
}

// upload PUTs every graph as RGB1 through client c, timing each call.
func (e *env) upload(ctx context.Context, c int, graphs []input) error {
	for _, g := range graphs {
		start := time.Now()
		_, _, err := e.clients[c].PutGraphBinary(ctx, g.name, g.rgb1)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("PUT %s: %w", g.name, err)
		}
		e.putMs = append(e.putMs, ms(end.Sub(start)))
		e.tr.add(spanPut, g.name, -1, start, end)
	}
	return nil
}

// addClient adds a harness client over the counting transport.
func (e *env) addClient(base, key string) {
	e.clients = append(e.clients, httpapi.NewClient(base, &http.Client{Transport: e.ct}).WithAPIKey(key))
}
