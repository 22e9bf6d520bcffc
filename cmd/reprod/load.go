package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/graph"
	"repro/internal/store"
)

// loadGraphFile ingests one local graph file into the store under a name
// derived from its base filename ("web-graph.el" registers as "web-graph").
// The format is picked by extension — see graph.ReadFile for the table.
//
// Local files are operator-supplied, so they are read without the node/edge
// caps the HTTP upload path enforces — only the int32 CSR range bounds
// apply.
func loadGraphFile(st *store.Store, path string) (string, store.Info, error) {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if name == "" {
		return "", store.Info{}, fmt.Errorf("cannot derive a graph name from %q", path)
	}
	g, err := graph.ReadFile(path, graph.ReadOptions{})
	if err != nil {
		return "", store.Info{}, err
	}
	info, _, err := st.Put(name, store.Source{Graph: g})
	return name, info, err
}
