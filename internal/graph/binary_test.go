package graph

import (
	"bytes"
	"strings"
	"testing"
)

// buildWeighted is a test helper assembling a graph from explicit node
// weights and weighted edges.
func buildWeighted(t *testing.T, nodeW []int64, edges [][3]int64) *Graph {
	t.Helper()
	b := NewBuilder(len(nodeW))
	for v, w := range nodeW {
		b.SetNodeWeight(v, w)
	}
	for _, e := range edges {
		if err := b.AddWeightedEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatalf("AddWeightedEdge(%v): %v", e, err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// sameGraph asserts two graphs agree on sizes, node weights and the
// canonical (insertion-ordered) edge list with weights.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("sizes: got (%d,%d), want (%d,%d)", got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if got.NodeWeight(v) != want.NodeWeight(v) {
			t.Fatalf("node %d weight: got %d, want %d", v, got.NodeWeight(v), want.NodeWeight(v))
		}
	}
	ge, we := got.Edges(), want.Edges()
	for id := range we {
		if ge[id] != we[id] || got.EdgeWeight(id) != want.EdgeWeight(id) {
			t.Fatalf("edge %d: got %v w=%d, want %v w=%d",
				id, ge[id], got.EdgeWeight(id), we[id], want.EdgeWeight(id))
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		nodeW []int64
		edges [][3]int64
	}{
		{"empty", nil, nil},
		{"isolated", []int64{7, 1, 9223372036854775807}, nil},
		{"triangle", []int64{1, 2, 3}, [][3]int64{{0, 1, 5}, {1, 2, 7}, {0, 2, 1}}},
		{"reversed-endpoints", []int64{1, 1, 1, 1}, [][3]int64{{3, 0, 2}, {2, 1, 9223372036854775807}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildWeighted(t, tc.nodeW, tc.edges)
			var buf bytes.Buffer
			if err := EncodeBinary(&buf, g); err != nil {
				t.Fatalf("EncodeBinary: %v", err)
			}
			g2, err := DecodeBinary(bytes.NewReader(buf.Bytes()), ReadOptions{})
			if err != nil {
				t.Fatalf("DecodeBinary: %v", err)
			}
			sameGraph(t, g2, g)
			// Re-encoding the decoded graph must reproduce the bytes exactly:
			// the format has one canonical rendering per graph.
			var buf2 bytes.Buffer
			if err := EncodeBinary(&buf2, g2); err != nil {
				t.Fatalf("re-EncodeBinary: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatalf("re-encode not byte-identical:\n% x\nvs\n% x", buf.Bytes(), buf2.Bytes())
			}
		})
	}
}

// TestBinaryMatchesTextCodec pins the two codecs to the same graph space: a
// graph shuttled through the binary format and one shuttled through the text
// format must come out identical.
func TestBinaryMatchesTextCodec(t *testing.T) {
	g := buildWeighted(t, []int64{4, 1, 6, 2, 9},
		[][3]int64{{0, 1, 3}, {1, 2, 1}, {4, 0, 8}, {2, 3, 2}, {3, 4, 5}})
	var bin, txt bytes.Buffer
	if err := EncodeBinary(&bin, g); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	if err := Encode(&txt, g); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gb, err := DecodeBinary(bytes.NewReader(bin.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	gt, err := Decode(bytes.NewReader(txt.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameGraph(t, gb, gt)
}

func TestDecodeBinaryRejects(t *testing.T) {
	valid := func(mut func([]byte) []byte) []byte {
		g := buildWeighted(t, []int64{1, 2, 3}, [][3]int64{{0, 1, 5}, {1, 2, 7}})
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			t.Fatalf("EncodeBinary: %v", err)
		}
		return mut(buf.Bytes())
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"bad magic", []byte("RGB9\x00\x00"), "bad magic"},
		{"magic only", []byte("RGB1"), "node count"},
		{"truncated payload", valid(func(b []byte) []byte { return b[:len(b)-1] }), "truncated"},
		{"trailing bytes", valid(func(b []byte) []byte { return append(b, 0x01, 0x01, 0x01, 0x01) }), "trailing"},
		{"zero node weight", []byte("RGB1\x01\x00\x00"), "non-positive weight"},
		{"zero edge weight", []byte("RGB1\x02\x01\x01\x01\x00\x01\x00"), "non-positive weight"},
		{"self loop", []byte("RGB1\x02\x01\x01\x01\x00\x00\x01"), "self"},
		{"endpoint out of range", []byte("RGB1\x02\x01\x01\x01\x00\x05\x01"), "out of range"},
		{"undeclared payload", []byte("RGB1\x01\x02\x01"), "truncated"},
		{"nodes over cap", []byte("RGB1\x81\x80\x04\x00"), "exceeds cap"},
		{"edges over cap", []byte("RGB1\x01\x81\x80\x04"), "exceeds cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBinary(bytes.NewReader(tc.data), ReadOptions{MaxNodes: fuzzSizeCap, MaxEdges: fuzzSizeCap})
			if err == nil {
				t.Fatalf("DecodeBinary accepted %q", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzGraphBinaryRoundTrip fuzzes DecodeBinary, the decoder binary graph
// uploads run, the same way FuzzGraphEncodeDecode fuzzes the text one, with
// a cross-codec check: any input DecodeBinary accepts under the fuzz caps
// must (a) re-encode to the identical byte stream after a second decode
// (fixed point) and (b) survive a trip through the text codec unchanged, so
// the two formats accept exactly the same graphs. The committed seed corpus
// lives in testdata/fuzz/FuzzGraphBinaryRoundTrip.
func FuzzGraphBinaryRoundTrip(f *testing.F) {
	seeds := []struct {
		nodeW []int64
		edges [][3]int64
	}{
		{nil, nil},
		{[]int64{7}, nil},
		{[]int64{1, 2, 3}, [][3]int64{{0, 1, 5}, {1, 2, 7}}},
		{[]int64{9223372036854775807, 1}, [][3]int64{{0, 1, 9223372036854775807}}},
	}
	for _, s := range seeds {
		b := NewBuilder(len(s.nodeW))
		for v, w := range s.nodeW {
			b.SetNodeWeight(v, w)
		}
		for _, e := range s.edges {
			b.MustAddEdge(int(e[0]), int(e[1]))
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, b.MustBuild()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("RGB1"))
	f.Add([]byte("not a graph"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(bytes.NewReader(data), ReadOptions{MaxNodes: fuzzSizeCap, MaxEdges: fuzzSizeCap})
		if err != nil {
			return // malformed inputs only need to be rejected cleanly
		}
		var bin bytes.Buffer
		if err := EncodeBinary(&bin, g); err != nil {
			t.Fatalf("encoding a decoded graph: %v", err)
		}
		g2, err := DecodeBinary(bytes.NewReader(bin.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatalf("re-decoding an encoded graph: %v", err)
		}
		var bin2 bytes.Buffer
		if err := EncodeBinary(&bin2, g2); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
			t.Fatalf("binary encoding is not a fixed point after one round trip")
		}
		sameGraph(t, g2, g)

		// Cross-check against the text codec: the same graph must survive a
		// text round trip bit-identically.
		var txt bytes.Buffer
		if err := Encode(&txt, g); err != nil {
			t.Fatalf("text-encoding a binary-decoded graph: %v", err)
		}
		gt, err := Decode(bytes.NewReader(txt.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatalf("text codec rejected a graph the binary codec accepted: %v", err)
		}
		sameGraph(t, gt, g)
	})
}
