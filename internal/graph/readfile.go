package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ReadFile loads a graph from a local file, picking the decoder by
// extension:
//
//	.el .txt .edges .edgelist   whitespace-separated edge list (ReadEdgeList)
//	.mtx                        Matrix Market coordinate (ReadMatrixMarket)
//	.rgd1                       on-disk CSR (OpenDisk)
//	.rgb1 .bin                  compact binary codec (DecodeBinary)
//
// opts caps every format (an .rgd1 file is checked once mapped). For .rgd1
// the file is mmapped and the mapping deliberately stays live for the
// process lifetime — the returned Graph aliases the mapped arrays, so there
// is no safe point to unmap. Callers that need the mapping's lifecycle
// (Close, Verify) should use OpenDisk directly.
func ReadFile(path string, opts ReadOptions) (*Graph, error) {
	ext := strings.ToLower(filepath.Ext(path))
	switch ext {
	case ".el", ".txt", ".edges", ".edgelist":
		return readFileWith(path, func(f *os.File) (*Graph, error) {
			return ReadEdgeList(f, opts)
		})
	case ".mtx":
		return readFileWith(path, func(f *os.File) (*Graph, error) {
			return ReadMatrixMarket(f, opts)
		})
	case ".rgd1":
		d, err := OpenDisk(path)
		if err != nil {
			return nil, err
		}
		if err := opts.checkDeclared(int64(d.N()), int64(d.M())); err != nil {
			d.Close()
			return nil, fmt.Errorf("graph: rgd1: %s: %w", path, err)
		}
		return d.Graph, nil
	case ".rgb1", ".bin":
		return readFileWith(path, func(f *os.File) (*Graph, error) {
			return DecodeBinary(f, opts)
		})
	default:
		return nil, fmt.Errorf("graph: unrecognized extension %q (want .el, .txt, .edges, .edgelist, .mtx, .rgd1, .rgb1, or .bin)", ext)
	}
}

// readFileWith opens path and funnels it through one of the streaming
// decoders.
func readFileWith(path string, decode func(*os.File) (*Graph, error)) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decode(f)
}
