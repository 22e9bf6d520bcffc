package httpapi

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
)

// This file is the compact binary rendering of a JobGroupResponse
// (DESIGN.md §6a), content-negotiated on GET /v1/jobgroups/{id} via the
// Accept header. A 64-seed group of maxis results is ~6× smaller than its
// JSON form (InSet travels as a bitset, Edges/Cost/Trace as varints), which
// is the bulk of the coordinator's poll traffic. JSON stays the default and
// the debug path; both renderings decode to identical structs, pinned by
// TestGroupBinaryMatchesJSON.
//
// Layout: magic "RJG1", then the group header (len-prefixed strings, varint
// counts, unix-nano timestamps), then one cell record per cell — seed,
// state byte, flags byte, trace, and the optional error/result payloads the
// flags announce. All varints are the encoding/binary Uvarint/Varint
// formats; signed fields (weights, Edges entries, which use -1 for
// unmatched) travel zigzagged via Varint.

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

// GroupBinaryContentType negotiates the binary job-group rendering on
// GET /v1/jobgroups/{id} (and the jobgroup POST/DELETE responses).
const GroupBinaryContentType = "application/x-repro-jobgroup"

// groupMagic brands a binary group stream; the trailing 1 is the version.
const groupMagic = "RJG1"

// Cell-record flag bits: which optional payloads follow.
const (
	gfCacheHit = 1 << iota
	gfError
	gfResult
	gfTrace
)

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

// appendTime appends a timestamp as unix nanoseconds, zero for the zero
// time (time.Time zero values predate the unix epoch and would not survive
// a UnixNano round trip).
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(buf, 0)
	}
	return binary.AppendVarint(buf, t.UnixNano())
}

// encodeGroupBinary renders v in the binary job-group format. Encoding a
// snapshot cannot fail except for a state string outside the lifecycle
// enum, which would be a programming error — hence the panic, mirroring
// what writeJSON does on an unmarshalable value (logs and truncates).
func encodeGroupBinary(v JobGroupResponse) []byte {
	buf := make([]byte, 0, 64+len(v.Cells)*48)
	buf = append(buf, groupMagic...)
	buf = appendString(buf, v.ID)
	buf = appendString(buf, v.Algo)
	buf = appendString(buf, v.State)
	buf = appendString(buf, v.TraceID)
	buf = binary.AppendUvarint(buf, uint64(v.Total))
	buf = binary.AppendUvarint(buf, uint64(v.Done))
	buf = appendTime(buf, v.SubmittedAt)
	if v.FinishedAt != nil {
		buf = appendTime(buf, *v.FinishedAt)
	} else {
		buf = binary.AppendVarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(v.Cells)))
	for _, c := range v.Cells {
		code, err := stateCode(c.State)
		if err != nil {
			panic(err)
		}
		var flags byte
		if c.CacheHit {
			flags |= gfCacheHit
		}
		if c.Error != "" {
			flags |= gfError
		}
		if c.Result != nil {
			flags |= gfResult
			if c.Result.Trace != nil {
				flags |= gfTrace
			}
		}
		buf = binary.AppendUvarint(buf, c.Seed)
		buf = append(buf, code, flags)
		buf = appendString(buf, c.TraceID)
		if c.Error != "" {
			buf = appendString(buf, c.Error)
		}
		if c.Result != nil {
			buf = appendResult(buf, c.Result)
		}
	}
	return buf
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

// groupReader walks a binary group stream, latching the first error so the
// decode body reads linearly without per-field error plumbing.
type groupReader struct {
	data []byte
	off  int
	err  error
}

func (r *groupReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("httpapi: binary group: "+format, args...)
	}
}

// uvarint reads one varint. A multi-byte varint whose last byte is zero is
// overlong and refused, as the decoders refuse every other slack (unknown
// flag bits, bitset padding): each value has one encoding, so anything
// that decodes re-encodes to its own bytes.
func (r *groupReader) uvarint(what string) uint64 {
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
func (r *groupReader) varint(what string) int64 {
	u := r.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

func (r *groupReader) count(what string) int {
	v := r.uvarint(what)
	// Every counted element occupies at least one byte, so a count beyond
	// the remaining input is malformed — reject before allocating for it.
	if r.err == nil && v > uint64(len(r.data)-r.off) {
		r.fail("%s %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

func (r *groupReader) str(what string) string {
	n := r.count(what + " length")
	if r.err != nil {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *groupReader) byte(what string) byte {
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

func (r *groupReader) time(what string) time.Time {
	ns := r.varint(what)
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// decodeGroupBinary parses the format written by encodeGroupBinary.
func decodeGroupBinary(data []byte) (JobGroupResponse, error) {
	if len(data) < len(groupMagic) || string(data[:len(groupMagic)]) != groupMagic {
		return JobGroupResponse{}, fmt.Errorf("httpapi: binary group: bad magic (want %q)", groupMagic)
	}
	r := &groupReader{data: data, off: len(groupMagic)}
	v := JobGroupResponse{
		ID:      r.str("id"),
		Algo:    r.str("algo"),
		State:   r.str("state"),
		TraceID: r.str("trace id"),
		Total:   int(r.uvarint("total")),
		Done:    int(r.uvarint("done")),
	}
	v.SubmittedAt = r.time("submitted_at")
	if t := r.time("finished_at"); !t.IsZero() {
		v.FinishedAt = &t
	}
	n := r.count("cell count")
	if r.err != nil {
		return JobGroupResponse{}, r.err
	}
	v.Cells = make([]GroupCellWire, 0, n)
	for i := 0; i < n; i++ {
		c := GroupCellWire{Seed: r.uvarint("seed")}
		code := r.byte("state code")
		flags := r.byte("flags")
		if r.err == nil {
			if int(code) >= len(stateCodes) {
				r.fail("cell %d: unknown state code %d", i, code)
			} else {
				c.State = stateCodes[code]
			}
		}
		if flags&^(gfCacheHit|gfError|gfResult|gfTrace) != 0 || flags&(gfResult|gfTrace) == gfTrace {
			r.fail("cell %d: bad flags %#x", i, flags)
		}
		c.CacheHit = flags&gfCacheHit != 0
		c.TraceID = r.str("cell trace id")
		if flags&gfError != 0 {
			if c.Error = r.str("cell error"); c.Error == "" {
				r.fail("cell %d: empty error", i)
			}
		}
		if flags&gfResult != 0 {
			c.Result = readResult(r, flags&gfTrace != 0)
		}
		if r.err != nil {
			return JobGroupResponse{}, r.err
		}
		v.Cells = append(v.Cells, c)
	}
	if r.off != len(data) {
		return JobGroupResponse{}, fmt.Errorf("httpapi: binary group: %d trailing bytes", len(data)-r.off)
	}
	return v, nil
}

func readResult(r *groupReader, hasTrace bool) *JobResult {
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
func readBitset(r *groupReader, n uint64) []bool {
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
