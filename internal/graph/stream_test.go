package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/rng"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := "# SNAP-style comment\n% MatrixMarket-style comment\n\n0 1\n1 2 7\n\t3 0 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got (%d,%d) nodes/edges, want (4,3)", g.N(), g.M())
	}
	want := buildWeighted(t, []int64{1, 1, 1, 1}, [][3]int64{{0, 1, 1}, {1, 2, 7}, {3, 0, 2}})
	sameGraph(t, g, want)
}

func TestReadEdgeListAutoGrowsIsolatedPrefix(t *testing.T) {
	// Node 5 appears only as an endpoint; nodes 0-4 exist implicitly.
	g, err := ReadEdgeList(strings.NewReader("5 6\n"), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 {
		t.Fatalf("n = %d, want 7 (max id + 1)", g.N())
	}
	if g.Degree(0) != 0 || g.Degree(5) != 1 {
		t.Fatalf("degrees: deg(0)=%d deg(5)=%d, want 0 and 1", g.Degree(0), g.Degree(5))
	}
}

func TestReadEdgeListSelfLoops(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 0\n0 1\n"), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1 (self-loop dropped)", g.M())
	}
}

func TestReadEdgeListDedup(t *testing.T) {
	// Directed dumps list both arc directions; the first occurrence stays.
	in := "0 1 5\n1 0 9\n1 2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2", g.M())
	}
	if id, ok := g.EdgeID(0, 1); !ok || g.EdgeWeight(id) != 5 {
		t.Fatalf("edge (0,1): want first occurrence's weight 5")
	}
}

func TestReadEdgeListCaps(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0 99\n"), ReadOptions{MaxNodes: 10}); err == nil {
		t.Fatal("node cap not enforced")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 3\n"), ReadOptions{MaxEdges: 2}); err == nil {
		t.Fatal("edge cap not enforced")
	}
}

func TestReadEdgeListRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"one-field":     "7\n",
		"four-fields":   "0 1 2 3\n",
		"negative-id":   "-1 2\n",
		"zero-weight":   "0 1 0\n",
		"neg-weight":    "0 1 -5\n",
		"alpha":         "a b\n",
		"id-overflow":   "0 99999999999999999999\n",
		"huge-id":       "0 4294967296\n", // beyond int32
		"trailing-junk": "0 1x\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), ReadOptions{}); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GNP(64, 0.15, rng.New(11))
	AssignUniformEdgeWeights(g, 100, rng.New(12))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g2, g)
}

func TestWriteEdgeListRejectsUnrepresentable(t *testing.T) {
	weighted := buildWeighted(t, []int64{2, 1}, [][3]int64{{0, 1, 1}})
	if err := WriteEdgeList(&bytes.Buffer{}, weighted); err == nil {
		t.Fatal("non-unit node weight written silently")
	}
	trailing := buildWeighted(t, []int64{1, 1, 1}, [][3]int64{{0, 1, 1}})
	if err := WriteEdgeList(&bytes.Buffer{}, trailing); err == nil {
		t.Fatal("trailing isolated node written silently (cannot round-trip)")
	}
}

func TestReadMatrixMarketVariants(t *testing.T) {
	cases := []struct {
		name string
		in   string
		n, m int
	}{
		{"pattern-symmetric", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n", 3, 2},
		{"integer-general-both-triangles", "%%MatrixMarket matrix coordinate integer general\n% comment\n3 3 4\n1 2 5\n2 1 5\n2 3 7\n3 2 7\n", 3, 2},
		{"real-structural", "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 0.5e1\n", 2, 1},
		{"diagonal-skipped", "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 1\n", 2, 1},
		{"rectangular", "%%MatrixMarket matrix coordinate pattern general\n2 4 1\n1 4\n", 4, 1},
	}
	for _, tc := range cases {
		g, err := ReadMatrixMarket(strings.NewReader(tc.in), ReadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g.N() != tc.n || g.M() != tc.m {
			t.Fatalf("%s: got (%d,%d), want (%d,%d)", tc.name, g.N(), g.M(), tc.n, tc.m)
		}
	}
	// Real values are structural only: weights come out as 1.
	g, err := ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 3.25\n"), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight(0) != 1 {
		t.Fatalf("real value treated as weight: got %d, want 1", g.EdgeWeight(0))
	}
}

func TestReadMatrixMarketRejects(t *testing.T) {
	cases := map[string]string{
		"no-banner":       "3 3 1\n1 2\n",
		"bad-object":      "%%MatrixMarket vector coordinate pattern general\n",
		"array-format":    "%%MatrixMarket matrix array integer general\n",
		"complex-field":   "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1 0\n",
		"skew-symmetry":   "%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 1\n",
		"missing-size":    "%%MatrixMarket matrix coordinate pattern general\n",
		"entry-oob":       "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n",
		"zero-index":      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
		"too-few-entries": "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n",
		"too-many":        "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n",
		"pattern-value":   "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 5\n",
		"integer-missing": "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2\n",
		"neg-weight":      "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 -3\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in), ReadOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := GNP(48, 0.2, rng.New(21))
	AssignUniformEdgeWeights(g, 50, rng.New(22))
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g2, g)
}

// TestStreamMatchesTextCodec is the ingestion property test: a graph shipped
// through the text formats must be indistinguishable from the same graph
// shipped through the canonical Encode/Decode codec. Fingerprints hash the
// structure sameGraph compares, so structural identity here is fingerprint
// identity at the store layer.
func TestStreamMatchesTextCodec(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := GNP(80, 0.1, rng.New(seed))
		AssignUniformEdgeWeights(g, 64, rng.New(seed+100))

		var canon bytes.Buffer
		if err := Encode(&canon, g); err != nil {
			t.Fatal(err)
		}
		viaCodec, err := Decode(bytes.NewReader(canon.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}

		var el, mm bytes.Buffer
		if err := WriteEdgeList(&el, g); err != nil {
			t.Fatal(err)
		}
		if err := WriteMatrixMarket(&mm, g); err != nil {
			t.Fatal(err)
		}
		viaEL, err := ReadEdgeList(bytes.NewReader(el.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		viaMM, err := ReadMatrixMarket(bytes.NewReader(mm.Bytes()), ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, viaEL, viaCodec)
		sameGraph(t, viaMM, viaCodec)
	}
}

// uploadCaps are the caps every HTTP upload reads under
// (registry.MaxGraphNodes and registry.MaxGraphEdges).
var uploadCaps = ReadOptions{MaxNodes: 1 << 20, MaxEdges: 1 << 22}

// allocBytes returns the heap bytes one call of f allocates, the least of
// three calls so that an allocation elsewhere in the process cannot inflate
// it.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// assertReadProportional checks that decoding a header-only body that
// declares the upload caps fails, and allocates within 64 KiB of decoding
// the same body declaring a one-node graph: a reader must reserve memory
// for the input it has read, not for the sizes a header claims.
func assertReadProportional(t *testing.T, decode func(body []byte) error, declaresCaps, declaresOne []byte) {
	t.Helper()
	if err := decode(declaresCaps); err == nil {
		t.Fatal("a header-only body declaring the caps decoded")
	}
	big := allocBytes(func() { _ = decode(declaresCaps) })
	small := allocBytes(func() { _ = decode(declaresOne) })
	if big > small+64<<10 {
		t.Fatalf("declaring the caps allocated %d bytes, declaring one node %d: %d bytes reserved for input never read",
			big, small, big-small)
	}
}

func TestDecodeBinaryAllocatesWhatItReads(t *testing.T) {
	header := func(n, m uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint([]byte(binaryMagic), n), m)
	}
	assertReadProportional(t, func(body []byte) error {
		_, err := DecodeBinary(bytes.NewReader(body), uploadCaps)
		return err
	}, header(1<<20, 1<<22), header(1, 0))
}

// TestDecodeBinaryReusesItsReader: the 64 KiB read buffer is recycled, so
// once one is idle a small upload (128 nodes, 512 edges, a 2 KB body)
// allocates about its graph alone, not a fresh buffer on top.
func TestDecodeBinaryReusesItsReader(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on its own")
	}
	const n = 128
	nodeW := make([]int64, n)
	var edges [][3]int64
	for v := range nodeW {
		nodeW[v] = int64(1 + v*37%200)
		for k := 1; k <= 4; k++ {
			edges = append(edges, [3]int64{int64(v), int64((v + 3*k) % n), int64(1 + (v+k)*53%300)})
		}
	}
	var body bytes.Buffer
	if err := EncodeBinary(&body, buildWeighted(t, nodeW, edges)); err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := DecodeBinary(bytes.NewReader(body.Bytes()), uploadCaps); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm the pool
	if got := allocBytes(decode); got >= 48<<10 {
		t.Fatalf("decoding a %d-byte body allocated %d bytes, want under %d", body.Len(), got, 48<<10)
	}
}

func TestReadMatrixMarketAllocatesWhatItReads(t *testing.T) {
	const banner = "%%MatrixMarket matrix coordinate pattern general\n"
	assertReadProportional(t, func(body []byte) error {
		_, err := ReadMatrixMarket(bytes.NewReader(body), uploadCaps)
		return err
	}, []byte(banner+"1048576 1048576 4194304\n"), []byte(banner+"1 1 0\n"))
}

func TestDecodeAllocatesWhatItReads(t *testing.T) {
	assertReadProportional(t, func(body []byte) error {
		_, err := Decode(bytes.NewReader(body), uploadCaps)
		return err
	}, []byte("1048576 4194304\n"), []byte("1 0\n"))
}
