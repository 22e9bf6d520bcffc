package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file is the compact binary graph codec used on the coordinator→worker
// wire (DESIGN.md §6a). The text format (Encode/Decode) stays the canonical
// debug path — human-readable, fuzz-hardened, consumed by cmd/distmatch —
// while the binary format exists purely to make bulk uploads cheap: a
// varint-packed stream is typically 4-6× smaller than the text rendering and
// decodes without any line scanning or integer parsing.
//
// Layout (all integers unsigned LEB128 varints):
//
//	magic "RGB1" (4 bytes)
//	n, m
//	w(0) … w(n-1)              node weights
//	u v w                      per edge, in insertion order
//
// Edges are serialized in insertion order — the order Graph.Edges reports and
// the order that defines dense edge IDs — so a decoded graph carries the same
// edge IDs, the same registry fingerprint and therefore the same cache keys
// and results as the original. Both codecs round-trip through Builder, so
// they accept and produce exactly the same graphs.

// binaryMagic brands a binary graph stream; the trailing 1 is the format
// version.
const binaryMagic = "RGB1"

// EncodeBinary writes g in the binary graph format.
func EncodeBinary(w io.Writer, g *Graph) error {
	// Sized for the common case of small varints; append grows as needed.
	buf := make([]byte, 0, len(binaryMagic)+10+2*g.N()+6*g.M())
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(g.N()))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	for v := 0; v < g.N(); v++ {
		buf = binary.AppendUvarint(buf, uint64(g.NodeWeight(v)))
	}
	for id, e := range g.Edges() {
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
		buf = binary.AppendUvarint(buf, uint64(g.EdgeWeight(id)))
	}
	_, err := w.Write(buf)
	return err
}

// binaryReaders recycles DecodeBinary's 64 KiB read buffers, since a fresh
// one per call cost more than a small upload's whole graph. It is a leaky
// free list, not a sync.Pool, so a decode finds a reader whenever one is
// idle (a sync.Pool misses across Ps and, under -race, drops items at
// random); it keeps at most 8 idle readers (512 KiB), and more concurrent
// uploads than that allocate their own.
var binaryReaders = make(chan *bufio.Reader, 8)

// DecodeBinary parses the format written by EncodeBinary directly from r,
// without ever holding the raw stream in memory, so a large upload costs
// one Builder, not body + Builder. The declared sizes are checked against
// opts before anything past the header is read, and the Builder is sized by
// the bytes actually read, never by the header's claim. Trailing bytes after
// the last edge are rejected, so every accepted stream has exactly one
// canonical re-encoding.
func DecodeBinary(r io.Reader, opts ReadOptions) (*Graph, error) {
	var br *bufio.Reader
	select {
	case br = <-binaryReaders:
		br.Reset(r)
	default:
		br = bufio.NewReaderSize(r, 64<<10)
	}
	defer func() {
		br.Reset(nil) // an idle reader never holds on to a request body
		select {
		case binaryReaders <- br:
		default:
		}
	}()
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: binary: bad magic (want %q)", binaryMagic)
	}
	rd := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("graph: binary: truncated or overlong %s: %w", what, err)
		}
		return v, nil
	}
	un, err := rd("node count")
	if err != nil {
		return nil, err
	}
	um, err := rd("edge count")
	if err != nil {
		return nil, err
	}
	if un > math.MaxInt32 || um > math.MaxInt32 {
		return nil, fmt.Errorf("graph: binary: sizes %d/%d exceed int32 range", un, um)
	}
	if err := opts.checkDeclared(int64(un), int64(um)); err != nil {
		return nil, fmt.Errorf("graph: binary: %w", err)
	}
	n, m := int(un), int(um)
	// Reserve what the input already buffered can hold (a node weight takes
	// at least one byte, an edge at least three) and grow from there.
	avail := br.Buffered()
	b := NewBuilder(min(n, avail))
	b.Grow(min(m, avail/3))
	for v := 0; v < n; v++ {
		uw, err := rd("node weight")
		if err != nil {
			return nil, err
		}
		if uw == 0 || uw > math.MaxInt64 {
			return nil, fmt.Errorf("graph: binary: node %d has non-positive weight", v)
		}
		b.EnsureNode(v)
		b.SetNodeWeight(v, int64(uw))
	}
	for i := 0; i < m; i++ {
		uu, err := rd("edge endpoint")
		if err != nil {
			return nil, err
		}
		uv, err := rd("edge endpoint")
		if err != nil {
			return nil, err
		}
		uw, err := rd("edge weight")
		if err != nil {
			return nil, err
		}
		if uu > math.MaxInt32 || uv > math.MaxInt32 {
			return nil, fmt.Errorf("graph: binary: edge %d endpoints out of int32 range", i)
		}
		if uw == 0 || uw > math.MaxInt64 {
			return nil, fmt.Errorf("graph: binary: edge %d has non-positive weight", i)
		}
		if err := b.AddWeightedEdge(int(uu), int(uv), int64(uw)); err != nil {
			return nil, err
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("graph: binary: trailing bytes after the last edge")
	}
	return b.Build()
}
