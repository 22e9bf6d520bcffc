package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/rng"
)

// spillStore builds a 2-slot store spilling into a fresh temp dir.
func spillStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	return New(Config{MaxGraphs: 2, SpillDir: dir}), dir
}

// fillSpill puts g1..g3 into a 2-slot store so g1 (LRU) spills.
func fillSpill(t *testing.T, s *Store) {
	t.Helper()
	for i, name := range []string{"g1", "g2", "g3"} {
		if _, _, err := s.Put(name, gnpSource(16, uint64(i+1))); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
	}
}

func TestSpillOnEviction(t *testing.T) {
	s, dir := spillStore(t)
	fillSpill(t, s)

	info, ok := s.Get("g1")
	if !ok {
		t.Fatal("evicted name vanished despite SpillDir")
	}
	if !info.Spilled || info.Nodes != 16 || info.Gen != "gnp" {
		t.Fatalf("bad spilled info %+v", info)
	}
	if _, err := os.Stat(filepath.Join(dir, info.Fingerprint+".rgd1")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	// List carries both resident and spilled names.
	if got := len(s.List()); got != 3 {
		t.Fatalf("List has %d names, want 3", got)
	}
	// Len counts resident only.
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 resident", s.Len())
	}
}

func TestSpillReviveRoundTrip(t *testing.T) {
	s, _ := spillStore(t)
	// Build the same graph the generator will produce, for comparison.
	spec, _ := registry.GetGenerator("gnp")
	want, err := spec.Build(registry.GenParams{N: 16, P: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillSpill(t, s)

	g, release, err := s.Acquire("g1")
	if err != nil {
		t.Fatalf("reviving acquire: %v", err)
	}
	defer release()
	if registry.Fingerprint(g) != registry.Fingerprint(want) {
		t.Fatal("revived graph differs from the original")
	}
	info, _ := s.Get("g1")
	if info.Spilled {
		t.Fatal("revived name still marked spilled")
	}
	// The revival evicted another LRU name into the spill index.
	spilled := 0
	for _, in := range s.List() {
		if in.Spilled {
			spilled++
		}
	}
	if spilled != 1 {
		t.Fatalf("%d names spilled after revive, want 1", spilled)
	}
}

func TestSpillReviveUsesResidentPayload(t *testing.T) {
	// A spilled name whose fingerprint is still resident under another name
	// revives by sharing that payload, no disk I/O.
	dir := t.TempDir()
	s := New(Config{MaxGraphs: 2, SpillDir: dir})
	if _, _, err := s.Put("a", gnpSource(16, 7)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("b", gnpSource(16, 8)); err != nil {
		t.Fatal(err)
	}
	// "alias" shares a's content; spill a first, then the alias revives from
	// the duplicate payload even with the file gone.
	if _, _, err := s.Put("c", gnpSource(16, 9)); err != nil { // evicts "a" (LRU)
		t.Fatal(err)
	}
	info, _ := s.Get("a")
	if !info.Spilled {
		t.Fatal("a should be spilled")
	}
	if _, _, err := s.Put("alias", gnpSource(16, 7)); err != nil { // evicts "b"
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	g, release, err := s.Acquire("a")
	if err != nil {
		t.Fatalf("revive from resident payload: %v", err)
	}
	defer release()
	ga, release2, err := s.Acquire("alias")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if g != ga {
		t.Fatal("revived name does not share the resident payload")
	}
}

// TestSpillLostFileFailsRevive: a spilled name whose spill file is gone
// fails Acquire with ErrRevive, the storage fault the HTTP layer answers
// 503, wrapping the cause; the name stays spilled, not half revived.
func TestSpillLostFileFailsRevive(t *testing.T) {
	s, dir := spillStore(t)
	fillSpill(t, s)
	info, _ := s.Get("g1")
	if err := os.Remove(filepath.Join(dir, info.Fingerprint+".rgd1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Acquire("g1"); !errors.Is(err, ErrRevive) || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("acquire with the spill file gone: %v, want ErrRevive wrapping fs.ErrNotExist", err)
	}
	if info, ok := s.Get("g1"); !ok || !info.Spilled {
		t.Fatalf("after the failed revive: %+v, %t; want g1 still spilled", info, ok)
	}
}

func TestSpillPutCollision(t *testing.T) {
	s, _ := spillStore(t)
	fillSpill(t, s)
	// Re-putting g1 with different content must fail even while spilled.
	if _, _, err := s.Put("g1", gnpSource(32, 99)); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v, want ErrExists", err)
	}
	// Idempotent re-put with identical content un-spills.
	if _, dedup, err := s.Put("g1", gnpSource(16, 1)); err != nil || dedup {
		t.Fatalf("re-put of spilled name: dedup=%t err=%v", dedup, err)
	}
	info, _ := s.Get("g1")
	if info.Spilled {
		t.Fatal("re-put name still spilled")
	}
}

func TestSpillDeleteKeepsFile(t *testing.T) {
	s, dir := spillStore(t)
	fillSpill(t, s)
	info, _ := s.Get("g1")
	if err := s.Delete("g1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("g1"); ok {
		t.Fatal("deleted spilled name still present")
	}
	// Content-addressed cache: the file must survive the name.
	if _, err := os.Stat(filepath.Join(dir, info.Fingerprint+".rgd1")); err != nil {
		t.Fatalf("spill file deleted with the name: %v", err)
	}
}

func TestSpillFailureDegradesToEviction(t *testing.T) {
	// An unusable SpillDir must not wedge Put: the victim is plainly evicted.
	bad := filepath.Join(t.TempDir(), "file-not-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxGraphs: 2, SpillDir: filepath.Join(bad, "sub")})
	fillSpill(t, s)
	if _, ok := s.Get("g1"); ok {
		t.Fatal("victim survived a failed spill")
	}
	if _, ok := s.Get("g3"); !ok {
		t.Fatal("put failed behind a broken spill dir")
	}
}

func TestSpillUploadedGraphKeepsWeights(t *testing.T) {
	// Spill/revive must preserve weights byte-exactly for uploaded graphs too
	// (the RGD1 file stores them; fingerprints hash them).
	g := graph.GNP(24, 0.3, rng.New(3))
	graph.AssignUniformNodeWeights(g, 100, rng.New(4))
	graph.AssignUniformEdgeWeights(g, 100, rng.New(5))
	fp := registry.Fingerprint(g)

	s, _ := spillStore(t)
	if _, _, err := s.Put("up", Source{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("f1", gnpSource(16, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("f2", gnpSource(16, 2)); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Get("up")
	if !info.Spilled {
		t.Fatal("up should be spilled")
	}
	got, release, err := s.Acquire("up")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if registry.Fingerprint(got) != fp {
		t.Fatal("revived uploaded graph lost content")
	}
}

// TestSpillRePutWhenFullKeepsName: an idempotent re-put of a spilled name
// that finds every resident name pinned fails with ErrFull and changes
// nothing — the name stays spilled and answers Get, as a durable store's
// journal, which still binds it, would have it after a restart.
func TestSpillRePutWhenFullKeepsName(t *testing.T) {
	s, _ := spillStore(t)
	fillSpill(t, s)
	for _, name := range []string{"g2", "g3"} {
		_, release, err := s.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	if _, _, err := s.Put("g1", gnpSource(16, 1)); !errors.Is(err, ErrFull) {
		t.Fatalf("re-put of a spilled name with every resident pinned: %v, want ErrFull", err)
	}
	if info, ok := s.Get("g1"); !ok || !info.Spilled {
		t.Fatalf("after the refused re-put: %+v, %t; want g1 still spilled", info, ok)
	}
}
