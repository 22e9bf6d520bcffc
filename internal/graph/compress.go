package graph

import (
	"encoding/binary"
	"fmt"
)

// CompressedAdjacency is a delta-varint rendering of the CSR neighbor array:
// each node's strictly-ascending neighbor segment is stored as
// uvarint(first), then uvarint(gap-1) per successor. Sparse real-world
// graphs compress to 1–2 bytes per arc against the raw 4, which the RGD1
// on-disk format's compressed mode uses to leave fewer pages to fault in.
//
// A CompressedAdjacency is immutable after construction and safe for
// concurrent readers; decoding writes only into the caller's scratch buffer.
type CompressedAdjacency struct {
	n    int
	offs []int64 // n+1 byte offsets into blob
	blob []byte
}

// CompressAdjacency encodes g's neighbor segments. One pass, O(arcs).
func (g *Graph) CompressAdjacency() *CompressedAdjacency {
	ca := &CompressedAdjacency{
		n:    g.n,
		offs: make([]int64, g.n+1),
		blob: make([]byte, 0, len(g.neighbors)+g.n), // ≥1 byte per arc heuristic
	}
	for v := 0; v < g.n; v++ {
		ca.blob = appendDeltaVarint(ca.blob, g.Neighbors(v))
		ca.offs[v+1] = int64(len(ca.blob))
	}
	return ca
}

// appendDeltaVarint encodes one strictly-ascending segment onto buf.
func appendDeltaVarint(buf []byte, seg []int32) []byte {
	if len(seg) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(seg[0]))
	prev := seg[0]
	for _, u := range seg[1:] {
		buf = binary.AppendUvarint(buf, uint64(u-prev-1))
		prev = u
	}
	return buf
}

// N returns the node count.
func (ca *CompressedAdjacency) N() int { return ca.n }

// Bytes returns the compressed payload size in bytes (excluding the offset
// index), for memory accounting against 4·arcs raw.
func (ca *CompressedAdjacency) Bytes() int { return len(ca.blob) }

// AppendNeighbors decodes node v's neighbor segment onto buf (usually
// buf[:0] of a reused scratch slice) and returns the extended slice, sorted
// ascending exactly like Graph.Neighbors.
func (ca *CompressedAdjacency) AppendNeighbors(v int, buf []int32) []int32 {
	b := ca.blob[ca.offs[v]:ca.offs[v+1]]
	if len(b) == 0 {
		return buf
	}
	x, k := binary.Uvarint(b)
	prev := int32(x)
	buf = append(buf, prev)
	for k < len(b) {
		d, k2 := binary.Uvarint(b[k:])
		prev += int32(d) + 1
		buf = append(buf, prev)
		k += k2
	}
	return buf
}

// decodeAllDeltaVarint expands a full compressed-neighbor payload into raw
// CSR form, validating against the expected offsets. It is the load path of
// RGD1's compressed mode.
func decodeAllDeltaVarint(offs []int64, blob []byte, csrOffsets []int32, arcs int) ([]int32, error) {
	out := make([]int32, 0, arcs)
	n := len(offs) - 1
	for v := 0; v < n; v++ {
		lo, hi := offs[v], offs[v+1]
		if lo < 0 || hi < lo || hi > int64(len(blob)) {
			return nil, fmt.Errorf("graph: rgd1: compressed-neighbor index corrupt at node %d", v)
		}
		want := int(csrOffsets[v+1] - csrOffsets[v])
		b := blob[lo:hi]
		got := 0
		var prev int32
		for k := 0; k < len(b); {
			d, k2 := binary.Uvarint(b[k:])
			if k2 <= 0 {
				return nil, fmt.Errorf("graph: rgd1: truncated varint in neighbor segment of node %d", v)
			}
			if got == 0 {
				prev = int32(d)
			} else {
				prev += int32(d) + 1
			}
			out = append(out, prev)
			got++
			k += k2
		}
		if got != want {
			return nil, fmt.Errorf("graph: rgd1: node %d decodes %d neighbors, offsets say %d", v, got, want)
		}
	}
	return out, nil
}
