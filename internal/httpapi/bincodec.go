package httpapi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
	"repro/internal/registry"
)

// This file holds the content types of the binary wire formats and the
// codec primitives of RBS1 (DESIGN.md §6a, §9), the one binary result
// format: length-prefixed varints and strings, the state byte, and the
// result encoding a cell frame carries (stream.go). Two answers travel in
// RBS1: the batch stream GET /v1/batches/{id}/stream under Accept:
// application/x-repro-batchstream, and a job group's POST, GET or DELETE
// answer under Accept: application/x-repro-jobgroup, which the cluster
// coordinator reads on every submit and long-poll. A result travels with
// InSet as an LSB-first bitset and Edges, costs and the round trace as
// varints: a 16-seed group answer on a 64-node graph is 4× (matchings) to
// 9× (independent sets) smaller than its JSON rendering. All varints are the
// encoding/binary Uvarint/Varint formats; signed fields (weights, Edges
// entries, which use -1 for unmatched) travel zigzagged via Varint.

// GraphEdgeListContentType negotiates streamed whitespace edge-list (SNAP
// dump) graph uploads on PUT /v1/graphs/{name}: the body is the file itself,
// decoded by graph.ReadEdgeList.
const GraphEdgeListContentType = "application/x-repro-edgelist"

// GraphMatrixMarketContentType negotiates streamed Matrix Market coordinate
// uploads on PUT /v1/graphs/{name}, decoded by graph.ReadMatrixMarket.
const GraphMatrixMarketContentType = "application/x-matrix-market"

// GraphBinaryContentType negotiates the graph.EncodeBinary format on
// PUT /v1/graphs/{name}.
const GraphBinaryContentType = "application/x-repro-graph"

// GroupBinaryContentType negotiates the RBS1 rendering of a job group's
// answer on POST /v1/jobgroups, GET and DELETE /v1/jobgroups/{id}.
const GroupBinaryContentType = "application/x-repro-jobgroup"

// stateCodes maps service states to wire bytes and back. Order is the wire
// contract — append only.
var stateCodes = []string{"queued", "running", "done", "failed", "canceled"}

func stateCode(s string) (byte, error) {
	for i, name := range stateCodes {
		if name == s {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("httpapi: unencodable state %q", s)
}

// appendString appends a uvarint length prefix and the bytes.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendResult(buf []byte, r *JobResult) []byte {
	buf = appendString(buf, r.Kind)
	buf = binary.AppendVarint(buf, int64(r.Size))
	buf = binary.AppendVarint(buf, r.Weight)
	buf = binary.AppendVarint(buf, int64(r.Uncovered))
	buf = binary.AppendUvarint(buf, uint64(len(r.InSet)))
	buf = appendBitset(buf, r.InSet)
	buf = binary.AppendUvarint(buf, uint64(len(r.Edges)))
	for _, e := range r.Edges {
		buf = binary.AppendVarint(buf, int64(e)) // -1 marks unmatched nodes
	}
	for _, c := range []int{r.Cost.Rounds, r.Cost.RealRounds, r.Cost.Messages,
		r.Cost.Bits, r.Cost.MaxMessageBits, r.Cost.BitBudget} {
		buf = binary.AppendVarint(buf, int64(c))
	}
	if t := r.Trace; t != nil {
		for _, f := range []int64{int64(t.Rounds), int64(t.VirtualRounds), t.Messages,
			t.Bits, t.PeakRoundMessages, t.PeakRoundBits, int64(t.PeakActive), t.CompactMoves} {
			buf = binary.AppendVarint(buf, f)
		}
		buf = binary.AppendUvarint(buf, t.MemoHits)
		buf = binary.AppendUvarint(buf, t.MemoMisses)
	}
	return buf
}

// appendBitset packs bools LSB-first, eight per byte.
func appendBitset(buf []byte, bits []bool) []byte {
	var cur byte
	for i, b := range bits {
		if b {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if len(bits)%8 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

// cellReader walks a binary cell payload, latching the first error so the
// decode body reads linearly without per-field error plumbing.
type cellReader struct {
	data []byte
	off  int
	err  error
}

func (r *cellReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("httpapi: stream cell: "+format, args...)
	}
}

// uvarint reads one varint. A multi-byte varint whose last byte is zero is
// overlong and refused, as the decoders refuse every other slack (unknown
// flag bits, bitset padding): each value has one encoding, so anything
// that decodes re-encodes to its own bytes.
func (r *cellReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || (n > 1 && r.data[r.off+n-1] == 0) {
		r.fail("truncated or overlong %s at offset %d", what, r.off)
		return 0
	}
	r.off += n
	return v
}

// varint reads one zigzag-encoded signed varint (binary.AppendVarint).
func (r *cellReader) varint(what string) int64 {
	u := r.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

func (r *cellReader) count(what string) int {
	v := r.uvarint(what)
	// Every counted element occupies at least one byte, so a count beyond
	// the remaining input is malformed — reject before allocating for it.
	if r.err == nil && v > uint64(len(r.data)-r.off) {
		r.fail("%s %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

func (r *cellReader) str(what string) string {
	n := r.count(what + " length")
	if r.err != nil {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *cellReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated %s at offset %d", what, r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func readResult(r *cellReader, hasTrace bool) *JobResult {
	res := &JobResult{
		Kind:      r.str("result kind"),
		Size:      int(r.varint("result size")),
		Weight:    r.varint("result weight"),
		Uncovered: int(r.varint("result uncovered")),
	}
	if n := r.uvarint("in_set length"); n > 0 && r.err == nil {
		res.InSet = readBitset(r, n)
	}
	if n := r.count("edges length"); n > 0 && r.err == nil {
		res.Edges = make([]int, n)
		for i := range res.Edges {
			res.Edges[i] = int(r.varint("edge entry"))
		}
	}
	res.Cost = registry.Cost{
		Rounds:         int(r.varint("cost rounds")),
		RealRounds:     int(r.varint("cost real rounds")),
		Messages:       int(r.varint("cost messages")),
		Bits:           int(r.varint("cost bits")),
		MaxMessageBits: int(r.varint("cost max message bits")),
		BitBudget:      int(r.varint("cost bit budget")),
	}
	if hasTrace {
		res.Trace = &obs.RoundTrace{
			Rounds:            int(r.varint("trace rounds")),
			VirtualRounds:     int(r.varint("trace virtual rounds")),
			Messages:          r.varint("trace messages"),
			Bits:              r.varint("trace bits"),
			PeakRoundMessages: r.varint("trace peak round messages"),
			PeakRoundBits:     r.varint("trace peak round bits"),
			PeakActive:        int(r.varint("trace peak active")),
			CompactMoves:      r.varint("trace compact moves"),
			MemoHits:          r.uvarint("trace memo hits"),
			MemoMisses:        r.uvarint("trace memo misses"),
		}
	}
	return res
}

// readBitset reads n bools packed LSB-first. A bitset packs eight entries
// per byte, so the generic count() one-byte-per-element bound does not
// apply; bound n against the remaining bytes × 8 before allocating.
func readBitset(r *cellReader, n uint64) []bool {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off)*8 {
		r.fail("bitset of %d entries exceeds remaining input", n)
		return nil
	}
	need := (int(n) + 7) / 8
	if n%8 != 0 && r.data[r.off+need-1]>>(n%8) != 0 {
		r.fail("bitset padding bits set")
		return nil
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = r.data[r.off+i/8]&(1<<(i%8)) != 0
	}
	r.off += need
	return bits
}
