package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file holds the streaming ingestion parsers for real-world graph files:
// whitespace edge lists (the SNAP dump format) and Matrix Market coordinate
// files. Both scan the input through a fixed-size bufio buffer — the raw file
// is never resident — parse integers straight out of the line bytes without
// per-line allocation, and feed a Builder, so a million-node file costs the
// CSR arrays plus one I/O buffer and nothing else. Node IDs auto-grow through
// Builder.EnsureNode, so streams that never announce n still work, and a
// declared size reserves nothing. Both drop self-loops and duplicate edges
// (keeping the first occurrence's weight): SNAP dumps contain self-loops and
// list both arc directions, and general Matrix Market files may carry both
// triangles.

// ReadOptions caps what a reader accepts. Every reader in this package
// (Decode, DecodeBinary, ReadEdgeList, ReadMatrixMarket, ReadFile) checks a
// declared size against the caps before reading past the header, and a
// streamed node ID or edge count as soon as it is read — the guard the HTTP
// layer applies while the body is still arriving. Zero means unbounded.
type ReadOptions struct {
	MaxNodes int
	MaxEdges int
}

// checkDeclared rejects a header that declares more nodes or edges than the
// caps allow.
func (o ReadOptions) checkDeclared(n, m int64) error {
	if o.MaxNodes > 0 && n > int64(o.MaxNodes) {
		return fmt.Errorf("%d nodes exceeds cap %d", n, o.MaxNodes)
	}
	if o.MaxEdges > 0 && m > int64(o.MaxEdges) {
		return fmt.Errorf("%d edges exceeds cap %d", m, o.MaxEdges)
	}
	return nil
}

// check validates a parsed endpoint/edge against the caps during the scan.
func (o ReadOptions) check(u, v, edges int) error {
	if o.MaxNodes > 0 && (u >= o.MaxNodes || v >= o.MaxNodes) {
		return fmt.Errorf("graph: node id %d exceeds cap %d", max(u, v), o.MaxNodes)
	}
	if o.MaxEdges > 0 && edges >= o.MaxEdges {
		return fmt.Errorf("graph: edge count exceeds cap %d", o.MaxEdges)
	}
	return nil
}

// lineScanner wraps bufio.Scanner with a buffer sized for graph files: lines
// are short (three integers), so 1 MiB is generous while keeping the resident
// window small regardless of file size.
func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return sc
}

// parseFields splits line into up to 4 whitespace-separated unsigned integer
// fields without allocating, returning the parsed values and the field count.
// A negative count reports a malformed field (non-digit bytes or overflow) at
// position -count.
func parseFields(line []byte, out *[4]int64) int {
	n := 0
	i := 0
	for {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i >= len(line) {
			return n
		}
		if n == 4 {
			return -5 // too many fields
		}
		neg := false
		if line[i] == '-' {
			neg = true
			i++
		}
		start := i
		var x int64
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			d := int64(line[i] - '0')
			if x > (math.MaxInt64-d)/10 {
				return -(n + 1)
			}
			x = x*10 + d
			i++
		}
		if i == start || (i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r') {
			return -(n + 1)
		}
		if neg {
			x = -x
		}
		out[n] = x
		n++
	}
}

// ReadEdgeList parses a whitespace edge-list stream (the SNAP dump format):
// one "u v" or "u v w" line per edge, '#' and '%' comment lines, blank lines
// ignored. Node IDs are non-negative integers; the node count is the largest
// ID seen plus one (auto-grown, so no header is needed). A missing weight
// column means weight 1; an explicit weight must be positive. All node
// weights are 1. Self-loop lines are skipped and repeated endpoint pairs
// keep their first occurrence.
func ReadEdgeList(r io.Reader, opts ReadOptions) (*Graph, error) {
	sc := lineScanner(r)
	b := NewBuilder(0)
	var f [4]int64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		nf := parseFields(line, &f)
		switch {
		case nf == 0:
			continue // whitespace-only line
		case nf < 0 || nf == 1:
			return nil, fmt.Errorf("graph: edge list line %d: malformed (want \"u v\" or \"u v w\")", lineNo)
		case nf > 3:
			return nil, fmt.Errorf("graph: edge list line %d: %d fields (want 2 or 3)", lineNo, nf)
		}
		u, v := f[0], f[1]
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: edge list line %d: negative node id", lineNo)
		}
		if u > math.MaxInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("graph: edge list line %d: node id exceeds int32 range", lineNo)
		}
		w := int64(1)
		if nf == 3 {
			w = f[2]
			if w <= 0 {
				return nil, fmt.Errorf("graph: edge list line %d: non-positive weight %d", lineNo, w)
			}
		}
		if u == v {
			continue
		}
		if err := opts.check(int(u), int(v), b.M()); err != nil {
			return nil, fmt.Errorf("%w (line %d)", err, lineNo)
		}
		b.EnsureNode(int(max(u, v)))
		if err := b.AddWeightedEdge(int(u), int(v), w); err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b.DedupEdges()
	return b.Build()
}

// WriteEdgeList renders g as a whitespace edge list ("u v w" lines, insertion
// order). Node weights are not representable in the format; writing a graph
// with non-unit node weights returns an error rather than dropping them
// silently. The output round-trips through ReadEdgeList fingerprint-identical.
func WriteEdgeList(w io.Writer, g *Graph) error {
	for v := 0; v < g.N(); v++ {
		if g.NodeWeight(v) != 1 {
			return fmt.Errorf("graph: edge list cannot carry node weights (node %d has weight %d)", v, g.NodeWeight(v))
		}
	}
	// The format has no node-count header — n is recovered as max ID + 1 —
	// so a graph whose largest-ID node is isolated cannot round-trip.
	if g.N() > 0 && g.Degree(g.N()-1) == 0 {
		return fmt.Errorf("graph: edge list cannot represent trailing isolated node %d", g.N()-1)
	}
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 64)
	for id, e := range g.Edges() {
		buf = strconv.AppendInt(buf[:0], int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, g.EdgeWeight(id), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a Matrix Market coordinate file as an undirected
// graph: the banner must declare "matrix coordinate" with field pattern,
// integer or real and symmetry general or symmetric. Entries are 1-indexed
// (i, j[, value]); diagonal entries are skipped (a simple graph has no
// self-loops). Integer values become edge weights (and must be positive);
// pattern and real files yield unit weights — real values are structural
// only, since the paper's algorithms take integer weights. Repeated entries
// (both triangles of a general file) keep their first occurrence. Nodes
// appear as entries name them; the ones only the size line declares are
// added once every entry has been read.
func ReadMatrixMarket(r io.Reader, opts ReadOptions) (*Graph, error) {
	sc := lineScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: reading MatrixMarket banner: %w", err)
		}
		return nil, io.ErrUnexpectedEOF
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) != 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" || banner[2] != "coordinate" {
		return nil, fmt.Errorf("graph: bad MatrixMarket banner %q (want %%%%MatrixMarket matrix coordinate <field> <symmetry>)", sc.Text())
	}
	field, symmetry := banner[3], banner[4]
	switch field {
	case "pattern", "integer", "real":
	default:
		return nil, fmt.Errorf("graph: unsupported MatrixMarket field %q (want pattern, integer or real)", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("graph: unsupported MatrixMarket symmetry %q (want general or symmetric)", symmetry)
	}

	// Size line: rows cols nnz (comments may precede it).
	var rows, cols, nnz int64
	var f [4]int64
	sized := false
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		if nf := parseFields(line, &f); nf != 3 {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: bad size line (want \"rows cols nnz\")", lineNo)
		}
		rows, cols, nnz = f[0], f[1], f[2]
		sized = true
		break
	}
	if !sized {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: reading MatrixMarket size line: %w", err)
		}
		return nil, io.ErrUnexpectedEOF
	}
	if rows < 0 || cols < 0 || nnz < 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("graph: MatrixMarket sizes %d×%d nnz=%d out of range", rows, cols, nnz)
	}
	n := int(max(rows, cols))
	if err := opts.checkDeclared(int64(n), nnz); err != nil {
		return nil, fmt.Errorf("graph: MatrixMarket: %w", err)
	}

	b := NewBuilder(0)
	entries := int64(0)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		nf := parseFields(line, &f)
		if nf == 0 {
			continue
		}
		// Real values carry a fraction/exponent the integer parser rejects;
		// re-split the rare real line with strconv instead.
		if nf < 0 && field == "real" {
			parts := strings.Fields(string(line))
			if len(parts) == 3 {
				i64, err1 := strconv.ParseInt(parts[0], 10, 64)
				j64, err2 := strconv.ParseInt(parts[1], 10, 64)
				if _, err3 := strconv.ParseFloat(parts[2], 64); err1 == nil && err2 == nil && err3 == nil {
					f[0], f[1], f[2] = i64, j64, 1
					nf = 3
				}
			}
		}
		if nf != 2 && nf != 3 {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: malformed entry", lineNo)
		}
		if field == "pattern" && nf != 2 {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: pattern entry carries a value", lineNo)
		}
		if field != "pattern" && nf != 3 {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: missing value", lineNo)
		}
		entries++
		if entries > nnz {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: more than the declared %d entries", lineNo, nnz)
		}
		i, j := f[0], f[1]
		if i < 1 || j < 1 || i > int64(n) || j > int64(n) {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: entry (%d,%d) outside %d×%d", lineNo, i, j, rows, cols)
		}
		if i == j {
			continue // diagonal: a simple graph has no self-loops
		}
		w := int64(1)
		if field == "integer" {
			w = f[2]
			if w <= 0 {
				return nil, fmt.Errorf("graph: MatrixMarket line %d: non-positive weight %d", lineNo, w)
			}
		}
		b.EnsureNode(int(max(i, j) - 1))
		if err := b.AddWeightedEdge(int(i-1), int(j-1), w); err != nil {
			return nil, fmt.Errorf("graph: MatrixMarket line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading MatrixMarket entries: %w", err)
	}
	if entries != nnz {
		return nil, fmt.Errorf("graph: MatrixMarket declares %d entries, got %d", nnz, entries)
	}
	if n > 0 {
		b.EnsureNode(n - 1)
	}
	b.DedupEdges()
	return b.Build()
}

// WriteMatrixMarket renders g as a Matrix Market coordinate file (integer
// symmetric, lower triangle, 1-indexed). Node weights are not representable;
// non-unit node weights return an error. The output round-trips through
// ReadMatrixMarket fingerprint-identical.
func WriteMatrixMarket(w io.Writer, g *Graph) error {
	for v := 0; v < g.N(); v++ {
		if g.NodeWeight(v) != 1 {
			return fmt.Errorf("graph: MatrixMarket cannot carry node weights (node %d has weight %d)", v, g.NodeWeight(v))
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate integer symmetric\n")
	fmt.Fprintf(bw, "%d %d %d\n", g.N(), g.N(), g.M())
	buf := make([]byte, 0, 64)
	for id, e := range g.Edges() {
		// Symmetric storage is the lower triangle: row ≥ col, so (V+1, U+1).
		buf = strconv.AppendInt(buf[:0], int64(e.V+1), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.U+1), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, g.EdgeWeight(id), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
