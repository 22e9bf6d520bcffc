package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// diskGraphs is the shared round-trip case set for the RGD1 tests.
func diskGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	gnp := GNP(300, 0.05, rng.New(41))
	AssignUniformNodeWeights(gnp, 64, rng.New(42))
	AssignUniformEdgeWeights(gnp, 64, rng.New(43))
	return map[string]*Graph{
		"empty":    buildWeighted(t, nil, nil),
		"isolated": buildWeighted(t, []int64{5, 9223372036854775807}, nil),
		"triangle": buildWeighted(t, []int64{1, 2, 3}, [][3]int64{{0, 1, 5}, {1, 2, 7}, {0, 2, 1}}),
		"star":     Star(33),
		"weighted": gnp,
	}
}

func TestDiskRoundTrip(t *testing.T) {
	for name, g := range diskGraphs(t) {
		path := filepath.Join(t.TempDir(), name+".rgd1")
		if err := WriteDisk(path, g); err != nil {
			t.Fatalf("%s: WriteDisk: %v", name, err)
		}
		d, err := OpenDisk(path)
		if err != nil {
			t.Fatalf("%s: OpenDisk: %v", name, err)
		}
		sameGraph(t, d.Graph, g)
		if d.Graph.MaxDegree() != g.MaxDegree() {
			t.Fatalf("%s: maxDeg = %d, want %d", name, d.Graph.MaxDegree(), g.MaxDegree())
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("%s: Verify: %v", name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: second Close not idempotent: %v", name, err)
		}
	}
}

// TestWriteDiskBytesPinned pins the RGD1 bytes WriteDisk writes for a fixed
// graph: spill files are content-addressed by fingerprint and reopened
// across versions, so the layout must not drift.
func TestWriteDiskBytesPinned(t *testing.T) {
	g := GNP(150, 0.08, rng.New(77))
	AssignUniformNodeWeights(g, 32, rng.New(78))
	AssignUniformEdgeWeights(g, 32, rng.New(79))
	path := filepath.Join(t.TempDir(), "g.rgd1")
	if err := WriteDisk(path, g); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ab37d48c5aed6d15be069ae26f72e69bdfae3becaaa10ea4cfbddd1ec740d617"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Fatalf("RGD1 image of a %d-node/%d-edge graph (%d bytes) hashes %s, want %s", g.N(), g.M(), len(blob), got, want)
	}
}

// TestDiskMatchesTextCodec is the on-disk property test: OpenDisk must yield
// a graph structurally identical to the same graph round-tripped through the
// canonical Encode/Decode codec (and therefore fingerprint-identical at the
// store layer).
func TestDiskMatchesTextCodec(t *testing.T) {
	g := GNP(150, 0.08, rng.New(77))
	AssignUniformNodeWeights(g, 32, rng.New(78))
	AssignUniformEdgeWeights(g, 32, rng.New(79))

	var canon bytes.Buffer
	if err := Encode(&canon, g); err != nil {
		t.Fatal(err)
	}
	viaCodec, err := Decode(bytes.NewReader(canon.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "g.rgd1")
	if err := WriteDisk(path, g); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sameGraph(t, d.Graph, viaCodec)
}

// TestDiskWeightMutationIsPrivate pins the MAP_PRIVATE contract: writing a
// weight on an opened graph must not leak into the file.
func TestDiskWeightMutationIsPrivate(t *testing.T) {
	g := buildWeighted(t, []int64{1, 2}, [][3]int64{{0, 1, 3}})
	path := filepath.Join(t.TempDir(), "g.rgd1")
	if err := WriteDisk(path, g); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	d.SetNodeWeight(0, 99)
	d.SetEdgeWeight(0, 99)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NodeWeight(0) != 1 || d2.EdgeWeight(0) != 3 {
		t.Fatalf("mutation leaked into the file: nodeW=%d edgeW=%d", d2.NodeWeight(0), d2.EdgeWeight(0))
	}
}

func TestDiskWriteIsAtomic(t *testing.T) {
	g := Star(5)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.rgd1")
	if err := WriteDisk(path, g); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// Overwrite with a different graph: readers must see one or the other,
	// and after return, the new one.
	g2 := Cycle(8)
	if err := WriteDisk(path, g2); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sameGraph(t, d.Graph, g2)
}

// corruptAt flips one byte of a file at offset.
func corruptAt(t *testing.T, path string, off int64, b byte) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[off] ^= b
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDiskRejectsCorruption(t *testing.T) {
	g := GNP(64, 0.1, rng.New(55))
	write := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "g.rgd1")
		if err := WriteDisk(path, g); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("bad-magic", func(t *testing.T) {
		path := write(t)
		corruptAt(t, path, 0, 0xff)
		if _, err := OpenDisk(path); err == nil {
			t.Fatal("opened a file with corrupt magic")
		}
	})
	t.Run("unknown-flags", func(t *testing.T) {
		path := write(t)
		corruptAt(t, path, 4, 0x80)
		if _, err := OpenDisk(path); err == nil {
			t.Fatal("opened a file with unknown flags")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		path := write(t)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob[:len(blob)-diskPage], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(path); err == nil {
			t.Fatal("opened a truncated file")
		}
	})
	t.Run("empty", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.rgd1")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(path); err == nil {
			t.Fatal("opened an empty file")
		}
	})
	t.Run("neighbor-out-of-range", func(t *testing.T) {
		path := write(t)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Section 1 (neighbors) starts at the table's second entry.
		off, _ := diskTableEntry(blob, 1)
		binary.LittleEndian.PutUint32(blob[off:], uint32(g.N()+100))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(path); err == nil {
			t.Fatal("opened a file whose neighbor array points out of range")
		}
	})
	t.Run("checksum-only-verify", func(t *testing.T) {
		// A flipped weight byte passes OpenDisk's bounds checks (weights are
		// unconstrained there) but must fail Verify's checksum.
		path := write(t)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off, _ := diskTableEntry(blob, 4) // nodeW section
		blob[off] ^= 0x01
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(path)
		if err != nil {
			t.Fatalf("bounds-only open rejected a weight flip: %v", err)
		}
		defer d.Close()
		if err := d.Verify(); err == nil {
			t.Fatal("Verify missed a checksum mismatch")
		}
	})
}

func TestDecodeDiskImage(t *testing.T) {
	g := GNP(64, 0.1, rng.New(66))
	path := filepath.Join(t.TempDir(), "g.rgd1")
	if err := WriteDisk(path, g); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDisk(blob)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, got, g)
	// DecodeDisk runs full verification, so any bit flip in a section fails.
	blob[diskHeaderSize] ^= 0x01
	if _, err := DecodeDisk(blob); err == nil {
		t.Fatal("DecodeDisk accepted a corrupted image")
	}
}
