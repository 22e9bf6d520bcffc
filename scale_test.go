//go:build largegraph

package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/stats"
)

// The largegraph suite is the million-node smoke check from the scale-up
// work: one worker must ingest a 10⁶-node graph through the streaming
// edge-list path, round-trip it through the RGD1 on-disk CSR without
// rebuilding the arrays, and run maxis on it inside fixed wall-clock and
// peak-RSS ceilings with the sequential and parallel engines bit-identical.
// It is deliberately excluded from the default build (`-tags largegraph`)
// so `go test ./...` stays fast on laptops.
const (
	largeN       = 1_000_000
	largeWallMax = 10 * time.Minute
	largeRSSMax  = 2 << 30 // 2 GiB peak for the whole process
)

func TestLargeGraphPipeline(t *testing.T) {
	dir := t.TempDir()
	ring := Cycle(largeN)
	fp := registry.Fingerprint(ring)

	// Streaming ingestion: the ring must survive the same edge-list file
	// path `reprod -load ring.el` uses, without content drift.
	elPath := filepath.Join(dir, "ring.el")
	f, err := os.Create(elPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, ring); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadFile(elPath, graph.ReadOptions{})
	if err != nil {
		t.Fatalf("streaming edge-list read: %v", err)
	}
	if registry.Fingerprint(loaded) != fp {
		t.Fatal("edge-list round trip changed the graph")
	}

	// RGD1 round trip: OpenDisk maps the prebuilt CSR arrays directly; the
	// graph it exposes must be fingerprint-identical to the original.
	rgdPath := filepath.Join(dir, "ring.rgd1")
	if err := graph.WriteDisk(rgdPath, loaded); err != nil {
		t.Fatal(err)
	}
	loaded = nil
	d, err := graph.OpenDisk(rgdPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if registry.Fingerprint(d.Graph) != fp {
		t.Fatal("RGD1 round trip changed the graph")
	}

	// maxis on the disk-backed graph, inside the ceilings.
	start := time.Now()
	seq, err := MaxIS(d.Graph, WithSeed(11))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckIndependentSet(d.Graph, seq.InSet); err != nil {
		t.Fatal(err)
	}
	t.Logf("maxis n=%d: %d rounds, weight %d, wall %s", largeN, seq.Cost.Rounds, seq.Weight, wall)
	if wall > largeWallMax {
		t.Fatalf("maxis took %s, ceiling %s", wall, largeWallMax)
	}
	if rss := stats.PeakRSS(); rss > largeRSSMax {
		t.Fatalf("peak RSS %d MiB, ceiling %d MiB", rss>>20, int64(largeRSSMax)>>20)
	} else if rss >= 0 {
		t.Logf("peak RSS %d MiB", rss>>20)
	}

	// Engine bit-identity at full size: the parallel tiled engine must
	// reproduce the sequential run exactly for the same seed.
	par, err := MaxIS(d.Graph, WithSeed(11), WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.InSet, seq.InSet) || par.Weight != seq.Weight || par.Cost != seq.Cost {
		t.Fatal("parallel maxis diverged from sequential at n=1M")
	}
}
