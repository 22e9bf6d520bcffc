package agg

import (
	"repro/internal/graph"
	"repro/internal/simul"
)

// RunLineNaive is the straw-man simulation of L(G) the paper warns about in
// §2.4: instead of exchanging partial aggregates, every node relays the Data
// of each of its incident edges to each neighbor, one item per edge per
// round. A node of degree d needs d-1 relay rounds per virtual round, so the
// schedule reserves ∆-1 relay rounds plus one update round — the Θ(∆)
// multiplicative congestion penalty that Theorem 2.8 eliminates.
//
// The relay schedule length is derived from the globally known ∆(G); all
// nodes must agree on it for the synchronous schedule to line up.
//
// The runtime shares the flat per-arc state arena with RunLine (so the E8
// ablation compares simulations, not allocators) and adds the naive
// machinery: a per-virtual-round snapshot arena the relays point into, relay
// queues as index lists, and per-neighbor receive buckets — the relays from
// neighbor u are exactly u's other incident live edges, which is the far side
// of the shared edge's L(G) neighborhood, so bucketing by sender replaces the
// old edge-ID map and its shares-an-endpoint filter. Relay messages are
// pooled per neighbor and double-buffered by round parity (a relay is sent
// every round while the previous one is still being read).
type naiveNode struct {
	relayR   int // relay rounds per virtual round
	states   []lineEdgeState
	outputs  []any // shared, indexed by edge ID; primaries write
	qbuf     []*Query
	rbuf     []int64
	liveData []Data // dense live states' data, rebuilt at phase 0

	// snaps[i] is the phase-0 snapshot of states[i].data relayed this
	// virtual round; views into one per-node arena.
	snaps []Data
	// queues[i] lists the state indices still to relay to neighbor i this
	// virtual round; heads[i] is the cursor (pop = advance, no reslicing).
	queues [][]int32
	heads  []int32
	// recv[i] collects the snapshot views relayed by neighbor i.
	recv [][]Data
	// relayMsgs[parity][i] is the pooled relay message for neighbor i.
	relayMsgs [2][]lineMsg
}

func statesAlive(states []lineEdgeState) bool {
	for i := range states {
		if states[i].live {
			return true
		}
	}
	return false
}

// rebuild starts a virtual round: drop stale received data, snapshot every
// live edge's data, queue the relays, and refresh the dense live-data list
// (liveness next changes in the update round's second pass, so the list
// stays valid through the whole virtual round).
func (a *naiveNode) rebuild() {
	a.liveData = a.liveData[:0]
	for i := range a.states {
		st := &a.states[i]
		a.recv[i] = a.recv[i][:0]
		a.queues[i] = a.queues[i][:0]
		a.heads[i] = 0
		if st.live {
			copy(a.snaps[i], st.data)
			st.liveIdx = int32(len(a.liveData))
			a.liveData = append(a.liveData, st.data)
		} else {
			st.liveIdx = -1
		}
	}
	for i := range a.states {
		if !a.states[i].live {
			continue
		}
		for j := range a.states {
			if j != i && a.states[j].live {
				a.queues[i] = append(a.queues[i], int32(j))
			}
		}
	}
}

func (a *naiveNode) Step(ctx *simul.Context, inbox []simul.Envelope) {
	if len(a.states) == 0 {
		ctx.Halt(nil)
		return
	}
	period := a.relayR + 1
	phase := ctx.Round() % period
	t := ctx.Round() / period

	// Fold in whatever arrived: relayed remote data during relay rounds,
	// update messages at the start of a new virtual round. The inbox is
	// sorted by sender and the states by other endpoint, so one merge cursor
	// attributes every message.
	i := 0
	for _, env := range inbox {
		lm, ok := env.Msg.(*lineMsg)
		if !ok {
			continue
		}
		for i < len(a.states) && int(a.states[i].other) < env.From {
			i++
		}
		if i == len(a.states) || int(a.states[i].other) != env.From {
			continue
		}
		st := &a.states[i]
		switch lm.kind {
		case msgRelay:
			// The view stays valid until the sender's next phase-0 snapshot,
			// which is after our update round consumes it.
			a.recv[i] = append(a.recv[i], Data(lm.vals))
		case msgUpdate:
			copy(st.data, lm.vals)
			if lm.halted {
				st.live = false
			}
		}
	}

	if phase == 0 {
		if !statesAlive(a.states) {
			ctx.Halt(nil)
			return
		}
		a.rebuild()
	}

	if phase < a.relayR {
		// Relay round: pop one queued item per neighbor.
		par := ctx.Round() & 1
		for i := range a.states {
			st := &a.states[i]
			if !st.live || int(a.heads[i]) >= len(a.queues[i]) {
				continue
			}
			j := a.queues[i][a.heads[i]]
			a.heads[i]++
			msg := &a.relayMsgs[par][i]
			msg.edgeID = a.states[j].id
			msg.vals = a.snaps[j]
			ctx.SendNbr(i, msg)
		}
		return
	}

	// Update round: primaries now hold the data of every L(G)-neighbor of
	// their edges — own-side locally, other-side via relays. Pass 1 computes
	// every aggregation against the pre-update snapshot.
	a.rbuf = a.rbuf[:0]
	for i := range a.states {
		st := &a.states[i]
		if !st.live || !st.primary {
			continue
		}
		a.qbuf = st.m.Queries(st.info, t, st.data, a.qbuf[:0])
		st.resOff = int32(len(a.rbuf))
		st.resLen = int32(len(a.qbuf))
		for _, q := range a.qbuf {
			acc := foldExcept(q, a.liveData, int(st.liveIdx))
			acc = q.Agg.Join(acc, foldExcept(q, a.recv[i], -1))
			a.rbuf = append(a.rbuf, acc)
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

// RunLineNaive executes the machines on L(G) using the naive relay schedule.
// Outputs are indexed by edge ID. One virtual round costs ∆(G)-1 relay rounds
// plus one update round.
func RunLineNaive(g *graph.Graph, cfg simul.Config, build func(edgeID int) Machine) (*Result, error) {
	relayR := g.MaxDegree() - 1
	if relayR < 1 {
		relayR = 1
	}
	states, err := buildLineStates(g, cfg.Seed, build)
	if err != nil {
		return nil, err
	}
	offsets, _, _ := g.CSR()
	outputs := make([]any, g.M())
	nodes := make([]naiveNode, g.N())
	res, err := simul.Run(g, cfg, func(v int) simul.Automaton {
		nd := &nodes[v]
		nd.relayR = relayR
		nd.states = states[offsets[v]:offsets[v+1]]
		nd.outputs = outputs
		d := len(nd.states)
		sum := 0
		for i := range nd.states {
			sum += len(nd.states[i].data)
		}
		snapArena := make([]int64, sum)
		nd.snaps = make([]Data, d)
		off := 0
		for i := range nd.states {
			f := len(nd.states[i].data)
			nd.snaps[i] = snapArena[off : off+f : off+f]
			off += f
		}
		nd.queues = make([][]int32, d)
		nd.heads = make([]int32, d)
		nd.recv = make([][]Data, d)
		nd.relayMsgs[0] = make([]lineMsg, d)
		nd.relayMsgs[1] = make([]lineMsg, d)
		for p := 0; p < 2; p++ {
			for i := range nd.relayMsgs[p] {
				nd.relayMsgs[p][i].kind = msgRelay
			}
		}
		return nd
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Outputs:       outputs,
		VirtualRounds: res.Metrics.Rounds / (relayR + 1),
		Metrics:       res.Metrics,
	}, nil
}
