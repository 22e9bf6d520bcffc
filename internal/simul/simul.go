// Package simul implements the synchronous message-passing models the paper's
// algorithms run in: LOCAL and CONGEST [Pel00].
//
// An execution proceeds in synchronous rounds. In every round each live node
// receives the messages its neighbors sent in the previous round, performs
// arbitrary local computation, and sends at most one message per incident
// edge. In the CONGEST model each message is limited to O(log n) bits; the
// engine enforces a budget of BitsFactor·⌈log₂(n+1)⌉ bits per message and
// fails the run if an algorithm exceeds it — this is how the repository
// *checks*, rather than assumes, the paper's CONGEST claims.
//
// Algorithms are written as per-node automata (the Automaton interface).
//
// # Engine
//
// The engine is allocation-free in steady state. Because a node sends at most
// one message per incident edge per round, inboxes and outboxes live in flat
// arenas with one slot per arc (directed edge occurrence) of the graph's CSR
// layout: node v's slots are positions offsets[v]..offsets[v+1]. A message
// from v to u is written directly into u's slot for sender v via the graph's
// precomputed mirror-arc index, so delivery is a slot-addressed store with no
// queueing, no append, and no sorting — slots are ordered by sender ID
// already, which yields the engine's canonical ascending-sender delivery
// order. Each round runs four phases separated by barriers:
//
//	step     every live node consumes its (compacted) inbox and fills its
//	         outbox slots; the consumed inbox slots are cleared
//	collect  errors and halts are folded in deterministically (ascending ID)
//	deliver  outbox slots are copied to the receivers' inbox slots and
//	         cleared; metrics are accumulated per shard
//	compact  each live node's inbox slots are compacted in place to the
//	         prefix of its arena segment, preserving sender order
//
// The parallel engine cuts the node range into contiguous CSR tiles of
// roughly Config.TileArcs arcs each, balanced by degree sum — small enough
// that one tile's slice of the arenas fits in the last-level cache, so each
// phase streams cache-resident slabs instead of striding a graph ≫ LLC — and
// a persistent worker pool claims tiles off a shared counter per phase
// (work stealing, so skewed degree distributions cannot strand a worker).
// Both engines are deterministic for a fixed Config.Seed: every node draws
// randomness from its own rng.Stream, all cross-node effects are
// slot-addressed writes that commute, and per-tile counters fold through
// commutative sums and maxes, so the sequential and parallel engines produce
// identical results regardless of which worker ran which tile.
//
// Layer (DESIGN.md §2, §2b): simul is the bottom execution layer; only
// internal/graph and internal/rng sit below it.
//
// Concurrency and ownership: a Run owns its automata and arenas for the
// duration of the call and is driven from one goroutine; the parallel
// engine's worker pool is internal and barrier-synchronized. Automata are
// confined to their shard within a round and must not retain the inbox
// slice across rounds (message values may be retained; the slice may not).
// Input graphs are read-only and may be shared between concurrent runs.
package simul

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Model selects the communication model.
type Model int

const (
	// CONGEST limits every message to BitsFactor·⌈log₂(n+1)⌉ bits.
	CONGEST Model = iota
	// LOCAL places no limit on message size.
	LOCAL
)

func (m Model) String() string {
	switch m {
	case CONGEST:
		return "CONGEST"
	case LOCAL:
		return "LOCAL"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Message is the payload exchanged between nodes. Bits reports the message's
// size for CONGEST accounting; implementations must return a bound on the
// number of bits a real encoding of the message would need.
type Message interface {
	Bits() int
}

// Envelope is a received message together with its sender.
type Envelope struct {
	From int
	Msg  Message
}

// Automaton is the per-node state machine of a distributed algorithm.
//
// Step is called once per round with the messages received at the start of
// that round (those sent by neighbors in the previous round). The automaton
// reacts by updating local state and calling ctx.Send / ctx.Broadcast; it
// terminates by calling ctx.Halt. After Halt, Step is never called again and
// messages addressed to the node are dropped (the node has left the
// computation, as in the paper's "return InIS/NotInIS"). The inbox slice is
// only valid for the duration of the call: the engine reuses its backing
// arena across rounds. Senders may pool message objects (the agg runtimes
// do), so a received Message and anything it points into are guaranteed
// stable only until the sender's next Step; consume messages in the Step
// they are delivered unless the sending protocol promises otherwise.
type Automaton interface {
	Step(ctx *Context, inbox []Envelope)
}

// Config controls an execution.
type Config struct {
	// Model is CONGEST (default) or LOCAL.
	Model Model
	// BitsFactor is the c in the per-message budget c·⌈log₂(n+1)⌉ used by
	// CONGEST. Zero means the default of 16, which accommodates the paper's
	// data tuples {w(v), status, layer, …} of O(log n + log W) bits with
	// W ≤ poly(n).
	BitsFactor int
	// MaxRounds aborts the run with ErrRoundLimit if some node has not
	// halted after this many rounds. Zero means the default of 1 << 20.
	MaxRounds int
	// Seed seeds the per-node randomness streams.
	Seed uint64
	// Parallel selects the sharded worker-pool engine. The execution is
	// identical to the sequential engine for the same Seed.
	Parallel bool
	// TileArcs sets the approximate arcs per parallel work tile (see the
	// package comment's tiling discussion). Zero selects the default of
	// 1 << 16 — segments of roughly 64K arcs keep a tile's arena slice
	// inside the last-level cache while leaving enough tiles for the
	// work-stealing loop to balance skewed degree distributions. Ignored by
	// the sequential engine, which is always one tile.
	TileArcs int
}

// ErrRoundLimit is returned (wrapped) when a run exceeds Config.MaxRounds.
var ErrRoundLimit = errors.New("simul: round limit exceeded")

// Metrics aggregates communication costs of a run. The per-round peak
// fields are the quantities ROADMAP's scaling items budget against: total
// counts say how much work a run did, peaks say how wide its widest round
// was. All counters are accumulated unconditionally — they live in the
// per-shard arenas and cost O(1) per round, so there is no observation
// switch that could perturb a run.
type Metrics struct {
	Rounds         int // synchronous rounds executed
	Messages       int // total messages delivered
	TotalBits      int // Σ message bits
	MaxMessageBits int // largest single message
	BitBudget      int // per-message budget enforced (0 in LOCAL)
	// PeakRoundMessages/PeakRoundBits are the largest single-round message
	// count and payload volume; PeakActive is the most nodes stepped in any
	// round; CompactMoves counts inbox envelope slots the compactor
	// relocated (an arena-churn proxy).
	PeakRoundMessages int
	PeakRoundBits     int
	PeakActive        int
	CompactMoves      int
}

// Merge folds o into m for algorithms assembled from several engine runs
// (e.g. a coloring phase followed by a selection phase): counts sum, peaks
// and the message-size maximum take the max, and BitBudget keeps m's value
// when set (the budget is a per-run constant, not a cost).
func (m *Metrics) Merge(o Metrics) {
	m.Rounds += o.Rounds
	m.Messages += o.Messages
	m.TotalBits += o.TotalBits
	m.MaxMessageBits = max(m.MaxMessageBits, o.MaxMessageBits)
	if m.BitBudget == 0 {
		m.BitBudget = o.BitBudget
	}
	m.PeakRoundMessages = max(m.PeakRoundMessages, o.PeakRoundMessages)
	m.PeakRoundBits = max(m.PeakRoundBits, o.PeakRoundBits)
	m.PeakActive = max(m.PeakActive, o.PeakActive)
	m.CompactMoves += o.CompactMoves
}

// Result is the outcome of a run.
type Result struct {
	// Outputs[v] is the value node v passed to Halt (nil if the run failed
	// before v halted).
	Outputs []any
	Metrics Metrics
}

// Context is the interface an automaton uses to interact with the network
// during one Step call. It is only valid for the duration of that call.
type Context struct {
	id    int
	round int
	g     *graph.Graph
	rand  *rng.Stream
	// nbrs is this node's CSR neighbor segment; out is the outbox arena view
	// aligned with it (out[i] is the message queued for nbrs[i], nil if
	// none) and outBits the matching metered sizes, so Bits() runs exactly
	// once per message. inbox is the compacted inbox arena view for the
	// current round.
	nbrs      []int32
	out       []Message
	outBits   []int32
	inbox     []Envelope
	halted    bool
	output    any
	err       error
	bitBudget int // 0 = unlimited (LOCAL)
}

// ID returns this node's identifier (0..N-1). Identifiers double as the
// unique O(log n)-bit IDs assumed by the model.
func (c *Context) ID() int { return c.id }

// Round returns the current round number, starting at 0.
func (c *Context) Round() int { return c.round }

// N returns the number of nodes in the network (global knowledge of n is
// standard in CONGEST: it fixes the message-size budget).
func (c *Context) N() int { return c.g.N() }

// Graph returns the communication graph. Automata may read structure
// (neighbors, degrees, weights) but must not mutate it.
func (c *Context) Graph() *graph.Graph { return c.g }

// Neighbors returns this node's neighbor IDs, sorted ascending. The slice is
// a zero-copy CSR view and must not be modified.
func (c *Context) Neighbors() []int32 { return c.nbrs }

// Degree returns this node's degree.
func (c *Context) Degree() int { return len(c.nbrs) }

// Rand returns this node's private randomness stream.
func (c *Context) Rand() *rng.Stream { return c.rand }

// Send transmits m to the neighbor `to` at the end of this round. Sending to
// a non-neighbor, sending twice to the same neighbor in one round, or
// exceeding the CONGEST bit budget aborts the run with an error.
func (c *Context) Send(to int, m Message) {
	if c.err != nil {
		return
	}
	i, ok := 0, false
	if uint(to) < uint(c.g.N()) { // range check before the int32 narrowing
		i, ok = slices.BinarySearch(c.nbrs, int32(to))
	}
	if !ok {
		c.err = fmt.Errorf("simul: round %d: node %d sent to non-neighbor %d", c.round, c.id, to)
		return
	}
	c.sendSlot(i, m)
}

// SendNbr transmits m to the i-th neighbor (Neighbors()[i]) at the end of
// this round. It is Send for callers that already know the neighbor's
// position in the CSR segment — the agg runtimes keep per-arc state aligned
// with it — and skips Send's binary search.
func (c *Context) SendNbr(i int, m Message) {
	if c.err != nil {
		return
	}
	if i < 0 || i >= len(c.nbrs) {
		c.err = fmt.Errorf("simul: round %d: node %d sent to out-of-range neighbor index %d", c.round, c.id, i)
		return
	}
	c.sendSlot(i, m)
}

// sendSlot queues m in outbox slot i (the slot for neighbor c.nbrs[i]). The
// metered size is computed here, once, and stashed in the aligned outBits
// slot for the deliver phase.
func (c *Context) sendSlot(i int, m Message) {
	if m == nil {
		c.err = fmt.Errorf("simul: round %d: node %d sent a nil message", c.round, c.id)
		return
	}
	if c.out[i] != nil {
		c.err = fmt.Errorf("simul: round %d: node %d sent twice to neighbor %d (CONGEST allows one message per edge per round)", c.round, c.id, int(c.nbrs[i]))
		return
	}
	b := m.Bits()
	if c.bitBudget > 0 && b > c.bitBudget {
		c.err = fmt.Errorf("simul: round %d: node %d message of %d bits exceeds CONGEST budget of %d bits", c.round, c.id, b, c.bitBudget)
		return
	}
	c.out[i] = m
	c.outBits[i] = int32(b)
}

// Broadcast sends m to every neighbor. Slots are addressed by index — the
// i-th neighbor's outbox slot is out[i] — and the message is metered once
// for all of them: the same m lands in every slot.
func (c *Context) Broadcast(m Message) {
	if c.err != nil || len(c.nbrs) == 0 {
		return
	}
	if m == nil {
		c.err = fmt.Errorf("simul: round %d: node %d sent a nil message", c.round, c.id)
		return
	}
	b := m.Bits()
	if c.bitBudget > 0 && b > c.bitBudget {
		c.err = fmt.Errorf("simul: round %d: node %d message of %d bits exceeds CONGEST budget of %d bits", c.round, c.id, b, c.bitBudget)
		return
	}
	for i := range c.nbrs {
		if c.out[i] != nil {
			c.err = fmt.Errorf("simul: round %d: node %d sent twice to neighbor %d (CONGEST allows one message per edge per round)", c.round, c.id, int(c.nbrs[i]))
			return
		}
		c.out[i] = m
		c.outBits[i] = int32(b)
	}
}

// Halt terminates this node with the given output. Messages already queued
// this round are still delivered.
func (c *Context) Halt(output any) {
	c.halted = true
	c.output = output
}

// shard is one contiguous node tile plus its per-round counters. The
// counters are the engine's telemetry arena: sized once, written only by
// whichever worker runs the tile (tiles are claimed whole, phases are
// barrier-separated), folded into Metrics at the round barrier. Counter
// folding sums and maxes over tiles, both commutative, so the fold is
// deterministic no matter which worker ran which tile.
type shard struct {
	lo, hi   int // node range [lo, hi)
	active   int
	messages int
	bits     int
	maxBits  int
	moves    int      // inbox slots relocated by compact
	_        [16]byte // pad to a cache line so counters don't false-share
}

// engine holds one run's preallocated state.
type engine struct {
	g       *graph.Graph
	autos   []Automaton
	ctxs    []Context
	offsets []int32
	nbrs    []int32
	mirror  []int32
	// inArena/outArena have one slot per arc. A node's slots are its CSR
	// segment; inbox slots are keyed by sender (mirror-addressed writes),
	// outbox slots by receiver. outBitsArena carries each outbox slot's
	// metered size, computed once at Send time.
	inArena      []Envelope
	outArena     []Message
	outBitsArena []int32
	halted       []bool
	stepped      []bool
	round        int
	tiles        []shard
	workers      int
	nextTile     atomic.Int64
}

// Run executes the distributed algorithm defined by build on the graph g.
// build(v) must return the automaton for node v.
func Run(g *graph.Graph, cfg Config, build func(v int) Automaton) (*Result, error) {
	n := g.N()
	if cfg.BitsFactor == 0 {
		cfg.BitsFactor = 16
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 20
	}
	budget := 0
	if cfg.Model == CONGEST {
		budget = cfg.BitsFactor * ceilLog2(n+1)
	}

	res := &Result{
		Outputs: make([]any, n),
		Metrics: Metrics{BitBudget: budget},
	}
	if n == 0 {
		return res, nil
	}

	offsets, nbrs, _ := g.CSR()
	e := &engine{
		g:            g,
		autos:        make([]Automaton, n),
		ctxs:         make([]Context, n),
		offsets:      offsets,
		nbrs:         nbrs,
		mirror:       g.MirrorArcs(),
		inArena:      make([]Envelope, len(nbrs)),
		outArena:     make([]Message, len(nbrs)),
		outBitsArena: make([]int32, len(nbrs)),
		halted:       make([]bool, n),
		stepped:      make([]bool, n),
	}
	// Per-node randomness streams live in one arena, like the contexts.
	master := rng.New(cfg.Seed)
	streams := make([]rng.Stream, n)
	for v := 0; v < n; v++ {
		e.autos[v] = build(v)
		streams[v] = master.SplitOff(uint64(v))
		e.ctxs[v] = Context{
			id:        v,
			g:         g,
			rand:      &streams[v],
			out:       e.outArena[offsets[v]:offsets[v+1]],
			outBits:   e.outBitsArena[offsets[v]:offsets[v+1]],
			nbrs:      nbrs[offsets[v]:offsets[v+1]],
			inbox:     e.inArena[offsets[v]:offsets[v]],
			bitBudget: budget,
		}
	}

	e.workers = 1
	if cfg.Parallel {
		e.workers = runtime.GOMAXPROCS(0)
		if e.workers > n {
			e.workers = n
		}
		if e.workers < 1 {
			e.workers = 1
		}
	}
	e.tiles = tileByDegree(offsets, n, e.workers, cfg.TileArcs)

	// Persistent worker pool: workers 1..k-1 wait on their channel; the
	// caller goroutine is worker 0. Each phase resets the shared tile
	// counter and every worker claims tiles from it until the list is
	// drained — work stealing over contiguous CSR ranges, so a worker stuck
	// on a dense tile sheds the rest of the list to its peers. Phase funcs
	// are allocated once, so the per-round cost is a few channel operations
	// and no allocation.
	var wg sync.WaitGroup
	var work []chan func(s *shard)
	if e.workers > 1 {
		work = make([]chan func(s *shard), e.workers)
		for w := 1; w < e.workers; w++ {
			work[w] = make(chan func(s *shard), 1)
			go func(w int) {
				for f := range work[w] {
					e.drainTiles(f)
					wg.Done()
				}
			}(w)
		}
		defer func() {
			for w := 1; w < len(work); w++ {
				close(work[w])
			}
		}()
	}
	runPhase := func(f func(s *shard)) {
		if e.workers == 1 {
			for i := range e.tiles {
				f(&e.tiles[i])
			}
			return
		}
		e.nextTile.Store(0)
		wg.Add(e.workers - 1)
		for w := 1; w < e.workers; w++ {
			work[w] <- f
		}
		e.drainTiles(f)
		wg.Wait()
	}
	stepPhase, deliverPhase, compactPhase := e.step, e.deliver, e.compact

	liveCount := n
	for e.round = 0; liveCount > 0; e.round++ {
		if e.round >= cfg.MaxRounds {
			return res, fmt.Errorf("%w: %d nodes still live after %d rounds", ErrRoundLimit, liveCount, cfg.MaxRounds)
		}

		runPhase(stepPhase)

		// Collect errors and halts deterministically (ascending node ID).
		for v := 0; v < n; v++ {
			if e.stepped[v] && e.ctxs[v].err != nil {
				return res, e.ctxs[v].err
			}
		}
		for v := 0; v < n; v++ {
			if e.stepped[v] && e.ctxs[v].halted {
				e.halted[v] = true
				res.Outputs[v] = e.ctxs[v].output
				liveCount--
			}
		}

		runPhase(deliverPhase)
		runPhase(compactPhase)

		active, roundMsgs, roundBits := 0, 0, 0
		for i := range e.tiles {
			s := &e.tiles[i]
			active += s.active
			roundMsgs += s.messages
			roundBits += s.bits
			if s.maxBits > res.Metrics.MaxMessageBits {
				res.Metrics.MaxMessageBits = s.maxBits
			}
			res.Metrics.CompactMoves += s.moves
			s.active, s.messages, s.bits, s.maxBits, s.moves = 0, 0, 0, 0, 0
		}
		res.Metrics.Rounds++
		res.Metrics.Messages += roundMsgs
		res.Metrics.TotalBits += roundBits
		res.Metrics.PeakRoundMessages = max(res.Metrics.PeakRoundMessages, roundMsgs)
		res.Metrics.PeakRoundBits = max(res.Metrics.PeakRoundBits, roundBits)
		res.Metrics.PeakActive = max(res.Metrics.PeakActive, active)
	}
	return res, nil
}

// drainTiles claims tiles off the shared counter and runs f on each until
// the tile list is exhausted.
func (e *engine) drainTiles(f func(s *shard)) {
	for {
		i := int(e.nextTile.Add(1)) - 1
		if i >= len(e.tiles) {
			return
		}
		f(&e.tiles[i])
	}
}

// step runs every live node of the tile and clears the consumed inbox slots
// so the arena is ready for the next delivery into this segment.
func (e *engine) step(s *shard) {
	for v := s.lo; v < s.hi; v++ {
		if e.halted[v] {
			continue
		}
		ctx := &e.ctxs[v]
		ctx.round = e.round
		e.autos[v].Step(ctx, ctx.inbox)
		for j := range ctx.inbox {
			ctx.inbox[j] = Envelope{}
		}
		e.stepped[v] = true
		s.active++
	}
}

// deliver copies each stepped node's outbox slots into the receivers' inbox
// slots via the mirror-arc index and accumulates metrics. Each arena slot is
// written by exactly one sender, so tiles never contend.
func (e *engine) deliver(s *shard) {
	for v := s.lo; v < s.hi; v++ {
		if !e.stepped[v] {
			continue
		}
		e.stepped[v] = false
		for k, hi := e.offsets[v], e.offsets[v+1]; k < hi; k++ {
			m := e.outArena[k]
			if m == nil {
				continue
			}
			e.outArena[k] = nil
			b := int(e.outBitsArena[k])
			s.messages++
			s.bits += b
			if b > s.maxBits {
				s.maxBits = b
			}
			if u := e.nbrs[k]; !e.halted[u] {
				e.inArena[e.mirror[k]] = Envelope{From: v, Msg: m}
			}
		}
	}
}

// compact packs each live node's delivered messages to the front of its arena
// segment, preserving slot order — slots are keyed by sender position in the
// sorted CSR segment, so the resulting inbox is ordered by ascending sender
// ID, the engine's canonical delivery order.
func (e *engine) compact(s *shard) {
	for v := s.lo; v < s.hi; v++ {
		if e.halted[v] {
			continue
		}
		seg := e.inArena[e.offsets[v]:e.offsets[v+1]]
		w := 0
		for j := range seg {
			if seg[j].Msg != nil {
				if j != w {
					seg[w] = seg[j]
					seg[j] = Envelope{}
					s.moves++
				}
				w++
			}
		}
		e.ctxs[v].inbox = seg[:w]
	}
}

// defaultTileArcs is the auto tile size: ~64K arcs of arena slots (an
// Envelope + Message + int32 per arc ≈ 2.5 MB) sits comfortably inside a
// last-level cache slice, and on million-node graphs it yields hundreds of
// tiles for the work-stealing loop to balance.
const defaultTileArcs = 1 << 16

// tileByDegree cuts 0..n into contiguous ranges of roughly tileArcs arcs
// each (degree sums, so every tile covers a similar-sized slab of the
// arenas), at least one tile per worker. Sequential runs use a single tile:
// the caller iterates nodes in order either way, and one tile skips the
// claim counter entirely.
func tileByDegree(offsets []int32, n, workers, tileArcs int) []shard {
	if workers <= 1 {
		return []shard{{lo: 0, hi: n}}
	}
	if tileArcs <= 0 {
		tileArcs = defaultTileArcs
	}
	// Weight each node by degree+1 so degree-0 stretches still split.
	weight := int(offsets[n]) + n
	tiles := (weight + tileArcs - 1) / tileArcs
	if tiles < workers {
		tiles = workers
	}
	if tiles > n {
		tiles = n
	}
	// Cut whenever the running weight reaches the remaining average.
	remaining := weight
	out := make([]shard, 0, tiles)
	lo, acc := 0, 0
	for v := 0; v < n; v++ {
		acc += int(offsets[v+1]-offsets[v]) + 1
		left := tiles - len(out)
		if left > 1 && acc >= remaining/left {
			out = append(out, shard{lo: lo, hi: v + 1})
			remaining -= acc
			lo, acc = v+1, 0
		}
	}
	out = append(out, shard{lo: lo, hi: n})
	return out
}

// ceilLog2 returns ⌈log₂ x⌉ for x ≥ 1.
func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// BitsForRange returns the number of bits needed to transmit a value in
// [0, max]; helper for Message implementations.
func BitsForRange(max int64) int {
	if max <= 0 {
		return 1
	}
	return bits.Len64(uint64(max))
}
