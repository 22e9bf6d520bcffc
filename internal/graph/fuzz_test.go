package graph

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSizeCap is the node and edge cap the fuzz targets pass their
// readers, so the fuzzer probes the parsers, not graphs of the upload caps'
// size.
const fuzzSizeCap = 1 << 16

// FuzzGraphEncodeDecode fuzzes the text codec: any input Decode accepts must
// re-encode to a form Decode accepts again, and the round trip must preserve
// the graph exactly (node count, weights, and the canonical edge list). The
// committed seed corpus lives in testdata/fuzz/FuzzGraphEncodeDecode.
func FuzzGraphEncodeDecode(f *testing.F) {
	f.Add("0 0\n")
	f.Add("1 0\n7\n")
	f.Add("3 2\n1 2 3\n0 1 5\n1 2 7\n")
	f.Add("# comment\n4 4\n1 1 1 1\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
	f.Add("2 1\n9223372036854775807 1\n0 1 9223372036854775807\n")
	f.Add("3 3\n1 2 3\n0 1 5\n0 1 5\n1 2 7\n") // duplicate edge line
	f.Add("5 0\n1 2 3 4 5\n")
	f.Fuzz(func(t *testing.T, text string) {
		g, err := Decode(strings.NewReader(text), ReadOptions{MaxNodes: fuzzSizeCap, MaxEdges: fuzzSizeCap})
		if err != nil {
			return // malformed inputs only need to be rejected cleanly
		}
		var buf bytes.Buffer
		if err := Encode(&buf, g); err != nil {
			t.Fatalf("encoding a decoded graph: %v", err)
		}
		g2, err := Decode(bytes.NewReader(buf.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatalf("re-decoding an encoded graph: %v\nencoded:\n%s", err, buf.Bytes())
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip sizes: got (%d,%d), want (%d,%d)", g2.N(), g2.M(), g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			if g2.NodeWeight(v) != g.NodeWeight(v) {
				t.Fatalf("node %d weight: got %d, want %d", v, g2.NodeWeight(v), g.NodeWeight(v))
			}
		}
		// Both graphs came out of Builder.Build, so their edge IDs are in the
		// same canonical order and the lists must match index for index.
		e1, e2 := g.Edges(), g2.Edges()
		for id := range e1 {
			if e1[id] != e2[id] || g.EdgeWeight(id) != g2.EdgeWeight(id) {
				t.Fatalf("edge %d: got %v w=%d, want %v w=%d",
					id, e2[id], g2.EdgeWeight(id), e1[id], g.EdgeWeight(id))
			}
		}
	})
}
