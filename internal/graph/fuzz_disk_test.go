package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList fuzzes the SNAP edge-list parser: any input it accepts
// (under the fuzz size caps) must survive a WriteEdgeList/ReadEdgeList round
// trip unchanged. The committed seed corpus lives in
// testdata/fuzz/FuzzReadEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n")
	f.Add("# comment\n% comment\n0 1 5\n1 2 7\n")
	f.Add("0 0\n")
	f.Add("3 4\n4 3 2\n")
	f.Add("0 1\n\t \n2 0 9223372036854775807\n")
	f.Add("-1 0\n")
	f.Add("0 99999999999999999999\n")
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ReadEdgeList(strings.NewReader(text), ReadOptions{MaxNodes: fuzzSizeCap, MaxEdges: fuzzSizeCap})
		if err != nil {
			return // malformed inputs only need a clean rejection
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			// The only legal refusal for a parser-produced graph is the
			// trailing-isolated-node case the format cannot represent.
			if g.N() > 0 && g.Degree(g.N()-1) == 0 {
				return
			}
			t.Fatalf("writing a parsed graph: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatalf("re-reading a written graph: %v\nwritten:\n%s", err, buf.Bytes())
		}
		sameGraph(t, g2, g)
	})
}

// FuzzReadMatrixMarket fuzzes the Matrix Market reader that
// application/x-matrix-market uploads run: any input it accepts under the
// fuzz caps must survive a WriteMatrixMarket/ReadMatrixMarket round trip
// unchanged. The committed seed corpus lives in
// testdata/fuzz/FuzzReadMatrixMarket.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n% comment\n3 3 4\n1 2 5\n2 1 5\n2 3 7\n3 2 7\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 0.5e1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 4 2\n1 1\n1 4\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n1048576 1048576 4194304\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 -3\n")
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ReadMatrixMarket(strings.NewReader(text), ReadOptions{MaxNodes: fuzzSizeCap, MaxEdges: fuzzSizeCap})
		if err != nil {
			return // malformed inputs only need a clean rejection
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, g); err != nil {
			t.Fatalf("writing a parsed graph: %v", err)
		}
		g2, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatalf("re-reading a written graph: %v\nwritten:\n%s", err, buf.Bytes())
		}
		sameGraph(t, g2, g)
	})
}

// FuzzDiskCSR fuzzes the RGD1 image decoder through DecodeDisk, the
// full-verification entry point for untrusted bytes: arbitrary images must
// be rejected cleanly (no panics, no out-of-range aliasing), and any image
// it accepts must re-encode through WriteDisk/OpenDisk to the same graph.
// The committed seed corpus (valid images of small graphs plus corrupted
// variants) lives in testdata/fuzz/FuzzDiskCSR.
func FuzzDiskCSR(f *testing.F) {
	for i, g := range []*Graph{Star(4), Cycle(6)} {
		blob := diskImage(f, g)
		f.Add(blob)
		if i == 0 {
			// One corrupted variant: flip a byte inside the first section.
			bad := bytes.Clone(blob)
			bad[diskHeaderSize] ^= 0x01
			f.Add(bad)
		}
		// A flag bit set: no flag is defined, so the image must be refused.
		flagged := bytes.Clone(blob)
		flagged[4] |= 0x01
		f.Add(flagged)
	}
	f.Add([]byte("RGD1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("image beyond the fuzz size cap")
		}
		g, err := DecodeDisk(data)
		if err != nil {
			return
		}
		// Re-encode in memory (no file, no fsync — fuzz throughput) and
		// decode again: the image must round-trip to the same graph.
		g2, err := DecodeDisk(diskImage(t, g))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded graph: %v", err)
		}
		sameGraph(t, g2, g)
	})
}

// diskImage renders g's RGD1 image into memory via the same layout and
// padding the file writer uses.
func diskImage(tb testing.TB, g *Graph) []byte {
	tb.Helper()
	hdr, sections := diskLayout(g)
	var buf bytes.Buffer
	if err := writePadded(&buf, hdr, sections); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
