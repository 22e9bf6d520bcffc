// Package obs is the repository's zero-dependency observability substrate:
// round/message telemetry summaries (RoundTrace), trace-ID generation and
// propagation helpers, fixed-bucket histograms, and a Prometheus text
// exposition writer. Everything here is stdlib-only and allocation-aware so
// the layers above can observe the engines without perturbing them.
//
// Layer (DESIGN.md §2): obs is a leaf substrate with no repository imports;
// simul, agg, registry, service, httpapi, cluster and the cmd layer all
// consume it.
//
// Ownership and sampling contract: the hot engines (simul, agg) own their
// counters — they accumulate into pre-sized arenas (the padded shard structs
// and per-node memo fields that already exist for the round loop) and never
// call into obs during a round. obs only *summarizes*: a RoundTrace is built
// once per run from the engine's final counters, and histograms are observed
// once per job completion under the service mutex. Counting is O(1) per round
// and branch-free, and the summary is built after the run, so observing a
// run cannot change its outputs.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
)

// RoundTrace summarizes one engine run for results and batch aggregates: how
// many rounds it took, how many messages and payload bits moved in total and
// at the peak round, how busy the arenas got, and how well the fold memo did.
// The zero value is a valid "nothing ran" trace.
type RoundTrace struct {
	// Rounds is the number of real communication rounds executed; for
	// line-graph simulations VirtualRounds counts the simulated rounds on
	// L(G) (0 when the run was not a simulation).
	Rounds        int `json:"rounds"`
	VirtualRounds int `json:"virtual_rounds,omitempty"`
	// Messages and Bits total the delivered envelopes and their payload
	// bits; PeakRoundMessages/PeakRoundBits are the largest single-round
	// values, the quantity ROADMAP's scaling items budget against.
	Messages          int64 `json:"messages"`
	Bits              int64 `json:"bits"`
	PeakRoundMessages int64 `json:"peak_round_messages,omitempty"`
	PeakRoundBits     int64 `json:"peak_round_bits,omitempty"`
	// PeakActive is the most automata stepped in any round; CompactMoves
	// counts envelope slots the mailbox compactor relocated.
	PeakActive   int   `json:"peak_active,omitempty"`
	CompactMoves int64 `json:"compact_moves,omitempty"`
	// MemoHits/MemoMisses count exchange-folding memo lookups in the agg
	// runtime (zero for runtimes without a memo).
	MemoHits   uint64 `json:"memo_hits,omitempty"`
	MemoMisses uint64 `json:"memo_misses,omitempty"`
}

// Add folds o into t: counts sum, peaks take the max. Use when one logical
// run is assembled from several engine runs (coloring + selection phases,
// per-bucket sub-runs).
func (t *RoundTrace) Add(o RoundTrace) {
	t.Rounds += o.Rounds
	t.VirtualRounds += o.VirtualRounds
	t.Messages += o.Messages
	t.Bits += o.Bits
	t.PeakRoundMessages = max(t.PeakRoundMessages, o.PeakRoundMessages)
	t.PeakRoundBits = max(t.PeakRoundBits, o.PeakRoundBits)
	t.PeakActive = max(t.PeakActive, o.PeakActive)
	t.CompactMoves += o.CompactMoves
	t.MemoHits += o.MemoHits
	t.MemoMisses += o.MemoMisses
}

// NewTraceID returns a fresh 16-hex-char trace ID. IDs are random, not
// sequential, so traces from independent processes never collide in a merged
// log stream.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a degenerate
		// constant keeps the caller going rather than panicking mid-request.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ChildTraceID derives the trace ID of the index-th child span (e.g. one
// batch cell) from its parent's ID. The derivation is deterministic and
// prefix-preserving, so grepping a log stream for the parent ID also finds
// every child.
func ChildTraceID(parent string, index int) string {
	return fmt.Sprintf("%s.%03d", parent, index)
}
