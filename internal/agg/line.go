package agg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

// Theorem 2.8 simulation: run a local aggregation algorithm on L(G) in the
// CONGEST model of G with no round or congestion overhead beyond a factor 2.
//
// Edge e = {u, v} with u < v is simulated by primary node u; the secondary v
// mirrors e's Data (the invariant from the proof of Theorem 2.8: "D_{v,i} is
// always present in both the primary and secondary nodes"). A virtual round t
// spans two real rounds:
//
//	real round 2t   (A): every secondary computes, for each of e's queries,
//	    the partial aggregate over its own other incident live edges, and
//	    sends the vector of partials to the primary across e itself.
//	real round 2t+1 (B): the primary joins the secondary's partials with the
//	    partials over its own side (the two sides are disjoint — a common
//	    edge would be a parallel edge — so the joining function of
//	    Definition 2.5 applies), runs Update, and sends the new Data plus a
//	    halt flag back across e.
//
// Exactly one message traverses each live edge per real round.
//
// # Arena layout
//
// The runtime mirrors the engine's slot-addressed design (DESIGN.md §2c): one
// lineEdgeState per arc of the CSR layout, in one flat array — node v's
// states are the positions offsets[v]..offsets[v+1], aligned with Neighbors
// and IncidentEdges, so states are sorted by the other endpoint's ID and the
// engine's ascending-sender inbox merges against them with a cursor instead
// of a map. Data vectors and update-message payloads are carved from two flat
// []int64 arenas sized once from ΣFields; each state owns one pooled lineMsg
// whose payload views its arena slot (the mirror arc's state is the other
// side's slot for the same edge). A state sends on alternate real rounds —
// partials on A rounds as a secondary, updates on B rounds as a primary — and
// a message is consumed the round after it is sent, so single-buffering per
// arc is race-free even under the parallel engine.

// lineEdgeState is one endpoint's view of the virtual node for one edge.
// States live in the flat per-arc arena described above.
type lineEdgeState struct {
	id      int32 // dense edge ID = virtual node ID
	other   int32 // the other endpoint of the edge
	primary bool  // this endpoint is min(u, v)
	live    bool
	liveIdx int32 // position in the node's dense live-data list; -1 if dead
	resOff  int32 // extent of this state's results in the node's result buffer
	resLen  int32
	m       Machine // authoritative at the primary, query shadow at the secondary
	info    *NodeInfo
	data    Data    // arena view, Fields() elements
	msg     lineMsg // pooled outgoing message (partial or update)
}

// lineNode is the real-node automaton that simulates all its incident edges.
type lineNode struct {
	states   []lineEdgeState // arena view: this node's CSR arc segment
	outputs  []any           // shared, indexed by edge ID; primaries write
	qbuf     []*Query        // reusable query plan buffer
	rbuf     []int64         // reusable result buffer (all states, B round)
	liveData []Data          // dense live states' data, for branch-free folds
	memo     foldMemo        // exchange-folding memo over liveData
	err      error
}

// refreshLive rebuilds the dense live-data list and invalidates the fold
// memo. It runs once per A round, after the update fold: liveness and data
// next change only in the B round's second pass, so both the list and the
// memoized prefix/suffix folds stay valid for the A-round partials and the
// B-round aggregations alike.
func (a *lineNode) refreshLive() {
	a.memo.reset()
	a.liveData = a.liveData[:0]
	for i := range a.states {
		st := &a.states[i]
		if st.live {
			st.liveIdx = int32(len(a.liveData))
			a.liveData = append(a.liveData, st.data)
		} else {
			st.liveIdx = -1
		}
	}
}

func (a *lineNode) fail(ctx *simul.Context, err error) {
	a.err = err
	ctx.Halt(nil)
}

// sidePartials appends, for each query, the aggregate over the data of this
// endpoint's other live incident edges. The liveness and data snapshots must
// predate any Update of the current virtual round, so callers run it before
// mutating anything.
func (a *lineNode) sidePartials(st *lineEdgeState, queries []*Query, out []int64) []int64 {
	for _, q := range queries {
		out = append(out, a.memo.partial(q, a.liveData, int(st.liveIdx)))
	}
	return out
}

// foldUpdates applies the primaries' B-round messages to the mirrored states.
// The inbox is sorted by sender and the states by other endpoint, so a single
// merge cursor replaces the old sender→state map.
func (a *lineNode) foldUpdates(inbox []simul.Envelope) {
	i := 0
	for _, env := range inbox {
		um, ok := env.Msg.(*lineMsg)
		if !ok || um.kind != msgUpdate {
			continue
		}
		for i < len(a.states) && int(a.states[i].other) < env.From {
			i++
		}
		if i == len(a.states) || int(a.states[i].other) != env.From {
			continue
		}
		st := &a.states[i]
		copy(st.data, um.vals)
		if um.halted {
			st.live = false
		}
	}
}

func (a *lineNode) Step(ctx *simul.Context, inbox []simul.Envelope) {
	if len(a.states) == 0 {
		ctx.Halt(nil)
		return
	}
	t := ctx.Round() / 2
	if ctx.Round()%2 == 0 {
		// A round. First fold in the primaries' B messages from the previous
		// virtual round (secondary side).
		a.foldUpdates(inbox)
		if !statesAlive(a.states) {
			ctx.Halt(nil)
			return
		}
		a.refreshLive()
		// Then send partials for every live edge we secondary.
		for i := range a.states {
			st := &a.states[i]
			if !st.live || st.primary {
				continue
			}
			a.qbuf = st.m.Queries(st.info, t, st.data, a.qbuf[:0])
			st.msg.vals = a.sidePartials(st, a.qbuf, st.msg.vals[:0])
			ctx.SendNbr(i, &st.msg)
		}
		return
	}

	// B round: primaries resolve virtual round t.
	// Pass 1: compute all aggregations against the pre-update snapshot,
	// merging the secondaries' partials (inbox, ascending sender) with the
	// primary states (ascending other endpoint).
	a.rbuf = a.rbuf[:0]
	pi := 0
	for i := range a.states {
		st := &a.states[i]
		if !st.live || !st.primary {
			continue
		}
		for pi < len(inbox) && inbox[pi].From < int(st.other) {
			pi++
		}
		var secondary *lineMsg
		if pi < len(inbox) && inbox[pi].From == int(st.other) {
			if pm, ok := inbox[pi].Msg.(*lineMsg); ok && pm.kind == msgPartial {
				secondary = pm
			}
		}
		if secondary == nil {
			// The secondary endpoint vanished without handing over; this
			// indicates a machine protocol bug.
			a.fail(ctx, fmt.Errorf("agg: line runtime: no partial aggregate from secondary %d for edge %d at virtual round %d", st.other, st.id, t))
			return
		}
		a.qbuf = st.m.Queries(st.info, t, st.data, a.qbuf[:0])
		if err := checkQueryCount(int(st.id), len(secondary.vals), len(a.qbuf)); err != nil {
			a.fail(ctx, err)
			return
		}
		st.resOff = int32(len(a.rbuf))
		st.resLen = int32(len(a.qbuf))
		for qi, q := range a.qbuf {
			mine := a.memo.partial(q, a.liveData, int(st.liveIdx))
			a.rbuf = append(a.rbuf, q.Agg.Join(mine, secondary.vals[qi]))
		}
	}
	// Pass 2: run the updates and ship the new data to the secondaries.
	for i := range a.states {
		st := &a.states[i]
		if !st.live || !st.primary {
			continue
		}
		halt, output := st.m.Update(st.info, t, st.data, a.rbuf[st.resOff:st.resOff+st.resLen])
		copy(st.msg.vals, st.data)
		st.msg.halted = halt
		ctx.SendNbr(i, &st.msg)
		if halt {
			a.outputs[st.id] = output
			st.live = false
		}
	}
	if !statesAlive(a.states) {
		ctx.Halt(nil)
	}
}

// buildLineStates allocates the flat per-arc arenas for a line-graph
// simulation of g — states, NodeInfos, randomness streams, Data vectors and
// update-message payloads — and initializes every state. The state at arc
// position k (node v → neighbor u) simulates edge edgeIDs[k]; both endpoints
// derive identical initial data from the edge's deterministic stream, so no
// bootstrap message is needed.
func buildLineStates(g *graph.Graph, seed uint64, build func(edgeID int) Machine) ([]lineEdgeState, error) {
	offsets, neighbors, edgeIDs := g.CSR()
	arcs := len(neighbors)
	states := make([]lineEdgeState, arcs)
	totalFields := 0
	for k := 0; k < arcs; k++ {
		id := int(edgeIDs[k])
		states[k].m = build(id)
		f := states[k].m.Fields()
		if err := validateFields(id, f); err != nil {
			return nil, err
		}
		totalFields += f
	}
	// dataArena holds the mirrored Data vectors; msgArena the update-message
	// payload slots (secondaries reuse theirs as the partial vector, growing
	// past Fields() only if a machine asks more queries than it has fields).
	dataArena := make([]int64, totalFields)
	msgArena := make([]int64, totalFields)
	infos := make([]NodeInfo, arcs)
	streams := make([]rng.Stream, arcs)
	master := rng.New(seed)
	m := g.M()
	off := 0
	for v := 0; v < g.N(); v++ {
		for k := int(offsets[v]); k < int(offsets[v+1]); k++ {
			st := &states[k]
			u := int(neighbors[k])
			id := int(edgeIDs[k])
			e := g.EdgeByID(id)
			f := st.m.Fields()
			// The randomness stream depends only on (seed, id), so executions
			// on L(G)-via-RunLine and on an explicitly constructed L(G) via
			// RunDirect coincide exactly.
			streams[k] = master.SplitOff(uint64(id))
			infos[k] = NodeInfo{
				ID:     id,
				N:      m,
				Degree: g.Degree(e.U) + g.Degree(e.V) - 2,
				Weight: g.EdgeWeight(id),
				Rand:   &streams[k],
			}
			st.id = int32(id)
			st.other = int32(u)
			st.primary = v == e.U // canonical edges have U < V
			st.live = true
			st.info = &infos[k]
			st.data = dataArena[off : off+f : off+f]
			st.msg.vals = msgArena[off : off+f : off+f]
			if st.primary {
				st.msg.kind = msgUpdate
			} else {
				st.msg.kind = msgPartial
			}
			off += f
			st.m.Init(st.info, st.data)
		}
	}
	return states, nil
}

// RunLine executes the machines on the virtual nodes of L(G) — one per edge
// of g — inside the CONGEST model of g, per Theorem 2.8. Outputs are indexed
// by edge ID. Virtual round t spans real rounds 2t and 2t+1.
func RunLine(g *graph.Graph, cfg simul.Config, build func(edgeID int) Machine) (*Result, error) {
	states, err := buildLineStates(g, cfg.Seed, build)
	if err != nil {
		return nil, err
	}
	offsets, _, _ := g.CSR()
	n := g.N()
	outputs := make([]any, g.M())
	nodes := make([]lineNode, n)
	// Pre-size each node's reusable buffers from CSR stats instead of
	// letting them grow by append over the first rounds: liveData and the
	// memo's projection row never exceed the node's degree, rbuf holds one
	// result per query of the node's primary states (machines query
	// Fields() values per round in the common case), and qbuf is reused one
	// state at a time, so its high water is the node's largest Fields().
	// Four slabs, four allocations total; each node's view is
	// capacity-clipped (three-index slices), so a machine that out-queries
	// the estimate reallocates privately instead of bleeding into its
	// neighbor's slab.
	rOff := make([]int, n+1)
	qOff := make([]int, n+1)
	for v := 0; v < n; v++ {
		sumPrimary, maxF := 0, 0
		for k := int(offsets[v]); k < int(offsets[v+1]); k++ {
			f := states[k].m.Fields()
			if states[k].primary {
				sumPrimary += f
			}
			if f > maxF {
				maxF = f
			}
		}
		rOff[v+1] = rOff[v] + sumPrimary
		qOff[v+1] = qOff[v] + maxF
	}
	liveSlab := make([]Data, len(states))
	rowSlab := make([]int64, len(states))
	rSlab := make([]int64, rOff[n])
	qSlab := make([]*Query, qOff[n])
	res, err := simul.Run(g, cfg, func(v int) simul.Automaton {
		lo, hi := int(offsets[v]), int(offsets[v+1])
		nodes[v].states = states[lo:hi]
		nodes[v].outputs = outputs
		nodes[v].liveData = liveSlab[lo:lo:hi]
		nodes[v].memo.row = rowSlab[lo:hi:hi]
		nodes[v].rbuf = rSlab[rOff[v]:rOff[v]:rOff[v+1]]
		nodes[v].qbuf = qSlab[qOff[v]:qOff[v]:qOff[v+1]]
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	var memo MemoStats
	for v := range nodes {
		if nodes[v].err != nil {
			return nil, nodes[v].err
		}
		memo.Hits += nodes[v].memo.hits
		memo.Misses += nodes[v].memo.misses
	}
	return &Result{
		Outputs:       outputs,
		VirtualRounds: res.Metrics.Rounds / 2,
		Metrics:       res.Metrics,
		Memo:          memo,
	}, nil
}
