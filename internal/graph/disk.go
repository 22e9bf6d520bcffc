package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// RGD1 is the mmap-able on-disk CSR format ("Repro Graph Disk v1"). A file
// is one 4096-byte header page followed by page-aligned sections that are
// byte-for-byte the graph's in-memory arrays (little-endian):
//
//	header   magic "RGD1" | flags u32 | n u64 | m u64 | maxDeg u64 |
//	         sha256[32] over all section payloads in table order |
//	         section table: 7 × (offset u64, length u64)
//	sections offsets[n+1]i32, neighbors[2m]i32, edgeIDs[2m]i32,
//	         mirror[2m]i32, nodeW[n]i64, edgeW[m]i64, (empty)
//
// The seventh table entry is always empty and flags always 0; a file with a
// flag set is rejected.
//
// Because sections are page-aligned images of the runtime arrays, OpenDisk
// on a little-endian host maps the file (MAP_PRIVATE) and casts sections in
// place: no per-element decode, no allocation proportional to the arrays,
// and weight mutation lands in copy-on-write pages that never touch the
// file. The only O(n+m) load cost is one linear pass that rebuilds the
// []Edge insertion-order table (not stored — it is derivable) while bounds-
// checking neighbors, edge IDs and mirrors so a corrupt file fails at open
// rather than mid-run. Full content verification (checksum + structural
// Validate) is opt-in via DiskGraph.Verify, keeping the open path O(m) in
// pointer chasing but O(1) in I/O: pages fault in only as algorithms touch
// them.
//
// RGD1 is a local spill/cache format, not a network interchange format:
// files are trusted to the same degree as the process's own memory. Use the
// RGB1 binary codec (EncodeBinary/DecodeBinary) for untrusted transport.
const (
	diskMagic      = "RGD1"
	diskPage       = 4096
	diskHeaderSize = diskPage

	// Section table order: offsets, neighbors, edgeIDs, mirror, nodeW,
	// edgeW, and one always-empty entry.
	diskSectionCount = 7
	diskTableOff     = 64
)

// DiskGraph is a Graph whose arrays are backed by a mapped RGD1 file.
type DiskGraph struct {
	*Graph

	data  []byte
	unmap func() error
}

// Close releases the file mapping. The embedded Graph (and every slice
// handed out from it) is invalid afterwards; callers that share the graph
// must not Close until all uses have completed. Close is idempotent.
func (d *DiskGraph) Close() error {
	if d.unmap == nil {
		return nil
	}
	u := d.unmap
	d.unmap = nil
	d.data = nil
	return u()
}

// Verify recomputes the section checksum against the header and runs the
// full structural Validate. It is the slow, read-everything complement to
// OpenDisk's bounds-only checks.
func (d *DiskGraph) Verify() error {
	if d.data == nil {
		return fmt.Errorf("graph: rgd1: verify on closed graph")
	}
	var want [32]byte
	copy(want[:], d.data[32:64])
	h := sha256.New()
	for i := 0; i < diskSectionCount; i++ {
		off, length := diskTableEntry(d.data, i)
		h.Write(d.data[off : off+length])
	}
	if got := h.Sum(nil); [32]byte(got) != want {
		return fmt.Errorf("graph: rgd1: checksum mismatch")
	}
	return d.Graph.Validate()
}

func diskPad(n int64) int64 {
	return (n + diskPage - 1) &^ (diskPage - 1)
}

func diskTableEntry(hdr []byte, i int) (off, length int64) {
	base := diskTableOff + 16*i
	return int64(binary.LittleEndian.Uint64(hdr[base:])),
		int64(binary.LittleEndian.Uint64(hdr[base+8:]))
}

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x12, 0x34}) == 0x3412

// i32Raw returns the raw little-endian bytes of xs, zero-copy on
// little-endian hosts.
func i32Raw(xs []int32) []byte {
	if len(xs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs))
	}
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

func i64Raw(xs []int64) []byte {
	if len(xs) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 8*len(xs))
	}
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// castI32 reinterprets b as []int32. Caller guarantees little-endian host
// and 4-byte alignment.
func castI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func castI64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func copyI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func copyI64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// diskLayout renders g's header page and section payloads — everything
// about the RGD1 image except where the bytes go. WriteDisk streams the
// result to a file; tests stream it into memory.
func diskLayout(g *Graph) (hdr []byte, sections [][]byte) {
	sections = make([][]byte, diskSectionCount)
	sections[0] = i32Raw(g.offsets)
	sections[1] = i32Raw(g.neighbors)
	sections[2] = i32Raw(g.edgeIDs)
	sections[3] = i32Raw(g.mirror)
	sections[4] = i64Raw(g.nodeW)
	sections[5] = i64Raw(g.edgeW)

	hdr = make([]byte, diskHeaderSize)
	copy(hdr, diskMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(g.edges)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.maxDeg))
	h := sha256.New()
	off := int64(diskHeaderSize)
	for i, sec := range sections {
		base := diskTableOff + 16*i
		if len(sec) > 0 {
			binary.LittleEndian.PutUint64(hdr[base:], uint64(off))
			off += diskPad(int64(len(sec)))
		}
		binary.LittleEndian.PutUint64(hdr[base+8:], uint64(len(sec)))
		h.Write(sec)
	}
	copy(hdr[32:64], h.Sum(nil))
	return hdr, sections
}

// WriteDisk writes g to path in RGD1 format. The write goes through a
// temporary file in the same directory and an atomic rename, so a crash
// mid-write never leaves a truncated file under the final name.
func WriteDisk(path string, g *Graph) (err error) {
	hdr, sections := diskLayout(g)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = writePadded(f, hdr, sections); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writePadded(w io.Writer, hdr []byte, sections [][]byte) error {
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var pad [diskPage]byte
	for _, sec := range sections {
		if len(sec) == 0 {
			continue
		}
		if _, err := w.Write(sec); err != nil {
			return err
		}
		if tail := int64(len(sec)) % diskPage; tail != 0 {
			if _, err := w.Write(pad[:diskPage-tail]); err != nil {
				return err
			}
		}
	}
	return nil
}

// OpenDisk maps the RGD1 file at path and returns a graph backed by it.
// On little-endian hosts with an OS mapping, the CSR arrays alias the
// mapped pages (copy-on-write, so weight mutation never dirties the file);
// elsewhere the sections are copy-decoded. Either way the open cost is one
// linear bounds-checking pass — see the format comment. Close the returned
// DiskGraph only after every use of the graph has finished.
func OpenDisk(path string) (*DiskGraph, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	g, err := decodeDisk(data, unmap != nil)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("graph: rgd1: %s: %w", path, err)
	}
	return &DiskGraph{Graph: g, data: data, unmap: unmap}, nil
}

// DecodeDisk decodes an in-memory RGD1 image with full verification
// (checksum and structural Validate). It never aliases data, so it is safe
// for untrusted bytes — this is the entry point the fuzz target drives.
func DecodeDisk(data []byte) (*Graph, error) {
	g, err := decodeDisk(data, false)
	if err != nil {
		return nil, err
	}
	d := DiskGraph{Graph: g, data: data}
	if err := d.Verify(); err != nil {
		return nil, err
	}
	return g, nil
}

type diskSection struct {
	off, len int64
}

// decodeDisk validates the header and sections of an RGD1 image and
// materializes the Graph. zeroCopy selects aliasing the image (requires a
// little-endian host and aligned sections — both guaranteed for mapped
// files, re-checked here anyway) over copy-decoding.
func decodeDisk(data []byte, zeroCopy bool) (*Graph, error) {
	if len(data) < diskHeaderSize || string(data[:4]) != diskMagic {
		return nil, fmt.Errorf("not an RGD1 file")
	}
	if flags := binary.LittleEndian.Uint32(data[4:]); flags != 0 {
		return nil, fmt.Errorf("unknown flags %#x", flags)
	}
	n64 := binary.LittleEndian.Uint64(data[8:])
	m64 := binary.LittleEndian.Uint64(data[16:])
	if n64 >= math.MaxInt32 || 2*m64 >= math.MaxInt32 {
		return nil, fmt.Errorf("n=%d m=%d exceed CSR int32 range", n64, m64)
	}
	n, m := int(n64), int(m64)

	var secs [diskSectionCount]diskSection
	for i := range secs {
		off, length := diskTableEntry(data, i)
		if length == 0 {
			continue
		}
		if off < diskHeaderSize || off%diskPage != 0 || length < 0 || off+length > int64(len(data)) {
			return nil, fmt.Errorf("section %d out of bounds (off=%d len=%d file=%d)", i, off, length, len(data))
		}
		secs[i] = diskSection{off, length}
	}
	want := func(i int, bytes int64, what string) ([]byte, error) {
		if secs[i].len != bytes {
			return nil, fmt.Errorf("%s section is %d bytes, want %d", what, secs[i].len, bytes)
		}
		return data[secs[i].off : secs[i].off+secs[i].len], nil
	}

	offB, err := want(0, 4*int64(n+1), "offsets")
	if err != nil {
		return nil, err
	}
	nbrB, err := want(1, 8*int64(m), "neighbors")
	if err != nil {
		return nil, err
	}
	idB, err := want(2, 8*int64(m), "edgeIDs")
	if err != nil {
		return nil, err
	}
	mirB, err := want(3, 8*int64(m), "mirror")
	if err != nil {
		return nil, err
	}
	nwB, err := want(4, 8*int64(n), "nodeW")
	if err != nil {
		return nil, err
	}
	ewB, err := want(5, 8*int64(m), "edgeW")
	if err != nil {
		return nil, err
	}

	zc := zeroCopy && hostLittleEndian && aligned(data)
	toI32 := copyI32
	toI64 := copyI64
	if zc {
		toI32 = castI32
		toI64 = castI64
	}
	g := &Graph{
		n:         n,
		offsets:   toI32(offB),
		neighbors: toI32(nbrB),
		edgeIDs:   toI32(idB),
		mirror:    toI32(mirB),
		nodeW:     toI64(nwB),
		edgeW:     toI64(ewB),
	}

	// Offsets invariants first: every later bound depends on them.
	if g.offsets[0] != 0 || int(g.offsets[n]) != 2*m {
		return nil, fmt.Errorf("offsets endpoints corrupt")
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := int(g.offsets[v+1] - g.offsets[v])
		if d < 0 {
			return nil, fmt.Errorf("offsets not monotone at node %d", v)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	g.maxDeg = maxDeg

	// One linear pass rebuilds the insertion-order edge table (the only
	// array RGD1 does not store) and bounds-checks every arc so that a
	// corrupt file fails here, not as an index panic mid-algorithm.
	g.edges = make([]Edge, m)
	assigned := 0
	for v := 0; v < n; v++ {
		for k := g.offsets[v]; k < g.offsets[v+1]; k++ {
			u := g.neighbors[k]
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("neighbor %d of node %d out of range", u, v)
			}
			id := g.edgeIDs[k]
			if id < 0 || int(id) >= m {
				return nil, fmt.Errorf("edge ID %d out of range", id)
			}
			if mk := g.mirror[k]; mk < 0 || int(mk) >= 2*m {
				return nil, fmt.Errorf("mirror %d out of range", mk)
			}
			if int32(v) < u {
				g.edges[id] = Edge{U: v, V: int(u)}
				assigned++
			}
		}
	}
	if assigned != m {
		return nil, fmt.Errorf("arc scan assigned %d canonical edges, want %d", assigned, m)
	}
	return g, nil
}

// aligned reports whether the image base allows in-place int64 casts of
// page-aligned sections.
func aligned(data []byte) bool {
	return len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0
}
