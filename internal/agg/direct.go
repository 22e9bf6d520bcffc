package agg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

// directNode adapts a Machine to a simul.Automaton running on the graph
// itself: each round the node broadcasts its Data and evaluates its queries
// over the Data received from live neighbors.
//
// The node owns no per-round allocations: data and the two broadcast
// snapshots are views into a run-wide arena, the broadcast messages are a
// double-buffered pair (the copy delivered for round r+1 is read while the
// copy for round r+2 is written), and the query, result and neighbor-data
// buffers are capacity-clipped views of run-wide slabs.
type directNode struct {
	m    Machine
	info *NodeInfo
	data Data
	msgs [2]dataMsg // round-parity double buffer; fields are arena views
	qbuf []*Query
	rbuf []int64
	nbuf []Data // live neighbors' data for the round, for branch-free folds
}

func (a *directNode) broadcast(ctx *simul.Context) {
	m := &a.msgs[ctx.Round()&1]
	copy(m.fields, a.data)
	ctx.Broadcast(m)
}

func (a *directNode) Step(ctx *simul.Context, inbox []simul.Envelope) {
	if ctx.Round() == 0 {
		a.broadcast(ctx)
		return
	}
	// The virtual round whose queries we are resolving.
	t := ctx.Round() - 1
	a.qbuf = a.m.Queries(a.info, t, a.data, a.qbuf[:0])
	a.nbuf = a.nbuf[:0]
	for _, env := range inbox {
		a.nbuf = append(a.nbuf, env.Msg.(*dataMsg).fields)
	}
	a.rbuf = a.rbuf[:0]
	for _, q := range a.qbuf {
		a.rbuf = append(a.rbuf, foldExcept(q, a.nbuf, -1))
	}
	halt, output := a.m.Update(a.info, t, a.data, a.rbuf)
	if halt {
		ctx.Halt(output)
		return
	}
	a.broadcast(ctx)
}

// RunDirect executes the machines on the nodes of g. Virtual round t occupies
// real round t+1 (round 0 publishes the initial data), so one virtual round
// costs one real round and one message per edge per direction per round.
func RunDirect(g *graph.Graph, cfg simul.Config, build func(v int) Machine) (*Result, error) {
	n := g.N()
	nodes := make([]directNode, n)
	totalFields := 0
	for v := 0; v < n; v++ {
		nodes[v].m = build(v)
		f := nodes[v].m.Fields()
		if err := validateFields(v, f); err != nil {
			return nil, err
		}
		totalFields += f
	}
	// One arena carve per node: the live Data vector plus the two broadcast
	// snapshots, all adjacent for locality. The query and result buffers are
	// sized like RunLine's: machines ask about Fields() queries per round in
	// the common case, and a node hears at most Degree() neighbors. Each view
	// is capacity-clipped (three-index slices), so a machine that out-queries
	// the estimate reallocates privately instead of bleeding into its
	// neighbor's slab.
	arena := make([]int64, 3*totalFields)
	rSlab := make([]int64, totalFields)
	qSlab := make([]*Query, totalFields)
	offsets, _, _ := g.CSR()
	nSlab := make([]Data, offsets[n])
	infos := make([]NodeInfo, n)
	streams := make([]rng.Stream, n)
	master := rng.New(cfg.Seed)
	off := 0
	for v := 0; v < n; v++ {
		nd := &nodes[v]
		f := nd.m.Fields()
		streams[v] = master.SplitOff(uint64(v))
		infos[v] = NodeInfo{
			ID:     v,
			N:      n,
			Degree: g.Degree(v),
			Weight: g.NodeWeight(v),
			Rand:   &streams[v],
		}
		nd.info = &infos[v]
		nd.data = arena[3*off : 3*off+f : 3*off+f]
		nd.msgs[0].fields = arena[3*off+f : 3*off+2*f : 3*off+2*f]
		nd.msgs[1].fields = arena[3*off+2*f : 3*off+3*f : 3*off+3*f]
		nd.rbuf = rSlab[off : off : off+f]
		nd.qbuf = qSlab[off : off : off+f]
		nd.nbuf = nSlab[offsets[v]:offsets[v]:offsets[v+1]]
		off += f
		nd.m.Init(nd.info, nd.data)
	}
	res, err := simul.Run(g, cfg, func(v int) simul.Automaton { return &nodes[v] })
	if err != nil {
		return nil, err
	}
	out := &Result{
		Outputs:       res.Outputs,
		VirtualRounds: max(0, res.Metrics.Rounds-1),
		Metrics:       res.Metrics,
	}
	return out, nil
}

// checkQueryCount guards against machines that change their query count
// between the two endpoints' evaluations; both line runtimes call it.
func checkQueryCount(id int, got, want int) error {
	if got != want {
		return fmt.Errorf("agg: virtual node %d query count changed between endpoints: %d vs %d (Queries must be pure)", id, got, want)
	}
	return nil
}
