package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Encode writes g in a simple line-oriented text format:
//
//	n m
//	w(0) w(1) … w(n-1)        (node weights)
//	u v w                      (one line per edge, w = edge weight)
//
// The format round-trips through Decode and is consumed by cmd/distmatch.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		if v > 0 {
			bw.WriteByte(' ')
		}
		bw.WriteString(strconv.FormatInt(g.NodeWeight(v), 10))
	}
	bw.WriteByte('\n')
	for id, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, g.EdgeWeight(id))
	}
	return bw.Flush()
}

// Decode parses the format written by Encode. The header's sizes are
// checked against opts before anything past it is read, and the Builder is
// sized from the weights line only once that line has been read, so a
// header alone reserves nothing.
func Decode(r io.Reader, opts ReadOptions) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<26)
	readLine := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" && !strings.HasPrefix(line, "#") {
				return line, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}

	header, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	var n, m int
	if _, err := fmt.Sscanf(header, "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %w", header, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative sizes in header %q", header)
	}
	if err := opts.checkDeclared(int64(n), int64(m)); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}

	var fields []string
	if n > 0 {
		wLine, err := readLine()
		if err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
		fields = strings.Fields(wLine)
		if len(fields) != n {
			return nil, fmt.Errorf("graph: want %d node weights, got %d", n, len(fields))
		}
	}
	b := NewBuilder(n)
	for v, f := range fields {
		w, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad weight %q: %w", f, err)
		}
		if w <= 0 {
			return nil, fmt.Errorf("graph: node %d has non-positive weight %d", v, w)
		}
		b.SetNodeWeight(v, w)
	}

	for i := 0; i < m; i++ {
		eLine, err := readLine()
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		var u, v int
		var w int64
		if _, err := fmt.Sscanf(eLine, "%d %d %d", &u, &v, &w); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", eLine, err)
		}
		if w <= 0 {
			return nil, fmt.Errorf("graph: edge %d has non-positive weight %d", i, w)
		}
		if err := b.AddWeightedEdge(u, v, w); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
