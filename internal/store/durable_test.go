package store

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/wal"
)

func durableCfg(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		WALDir:   filepath.Join(dir, "wal"),
		SpillDir: filepath.Join(dir, "spill"),
	}
}

func TestDurableStoreRecoversBindings(t *testing.T) {
	cfg := durableCfg(t)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GNP(60, 0.2, rng.New(7))
	if _, _, err := st.Put("uploaded", Source{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("generated", Source{Gen: "gnp", GenParams: registry.GenParams{N: 40, P: 0.3, Seed: 11}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("doomed", Source{Graph: graph.GNP(10, 0.5, rng.New(3))}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	wantFP := registry.Fingerprint(g)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Get("doomed"); ok {
		t.Fatal("deleted name survived recovery")
	}
	info, ok := st2.Get("uploaded")
	if !ok || !info.Spilled || info.Fingerprint != wantFP || info.Nodes != 60 {
		t.Fatalf("uploaded recovered wrong: ok=%v info=%+v", ok, info)
	}
	gi, ok := st2.Get("generated")
	if !ok || gi.Gen != "gnp" || gi.Nodes != 40 {
		t.Fatalf("generated recovered wrong: ok=%v info=%+v", ok, gi)
	}

	// Acquire must revive the graph bit-identically from the spill file.
	rg, release, err := st2.Acquire("uploaded")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if registry.Fingerprint(rg) != wantFP {
		t.Fatal("revived graph fingerprint differs from original")
	}
}

func TestDurableStoreSnapshotCompaction(t *testing.T) {
	cfg := durableCfg(t)
	cfg.SnapshotEvery = 4
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, n := range names {
		if _, _, err := st.Put(n, Source{Gen: "gnp", GenParams: registry.GenParams{N: 12 + i, P: 0.4, Seed: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := st.WALMetrics()
	if !ok || m.SnapshotsTotal == 0 {
		t.Fatalf("expected automatic snapshot after %d puts, metrics=%+v ok=%v", len(names), m, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, n := range names {
		if _, ok := st2.Get(n); !ok {
			t.Fatalf("name %q lost across snapshot compaction", n)
		}
	}
	m2, _ := st2.WALMetrics()
	if m2.ReplayedSnapshots != 1 {
		t.Fatalf("ReplayedSnapshots = %d, want 1 (Close snapshot supersedes the log)", m2.ReplayedSnapshots)
	}
	if m2.ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d, want 0 after a clean Close snapshot", m2.ReplayedRecords)
	}
}

// TestClosedDurableStoreRefusesWrites: once Close has run, the log can no
// longer journal anything, so Put and Delete must fail instead of
// acknowledging a change the next Open would not see.
func TestClosedDurableStoreRefusesWrites(t *testing.T) {
	cfg := durableCfg(t)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("kept", Source{Graph: graph.GNP(20, 0.3, rng.New(5))}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("late", Source{Graph: graph.GNP(20, 0.3, rng.New(6))}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want ErrClosed", err)
	}
	if err := st.Delete("kept"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: err = %v, want ErrClosed", err)
	}
	if got := len(st.List()); got != 1 {
		t.Fatalf("closed store lists %d names, want the 1 acknowledged", got)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok := st2.Get("kept"); !ok {
		t.Fatal("acknowledged name lost across reopen")
	}
	if _, ok := st2.Get("late"); ok {
		t.Fatal("refused Put survived reopen")
	}
}

// TestRefusedJournalPutKeepsResidents: Put settles the room check and the
// journal append before it evicts, so a put the journal refuses leaves the
// resident names where they were.
func TestRefusedJournalPutKeepsResidents(t *testing.T) {
	cfg := durableCfg(t)
	cfg.MaxGraphs = 1
	var log *wal.Log
	cfg.WALHooks = &wal.TestHooks{OnOpen: func(l *wal.Log) { log = l }}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Put("a", Source{Graph: graph.GNP(20, 0.3, rng.New(1))}); err != nil {
		t.Fatal(err)
	}
	log.Kill()
	if _, _, err := st.Put("b", Source{Graph: graph.GNP(20, 0.3, rng.New(2))}); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("Put on a killed journal: %v, want wal.ErrCrashed", err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after the refused put, want 1", st.Len())
	}
	if info, ok := st.Get("a"); !ok || info.Spilled {
		t.Fatalf("a after the refused put: %+v, %t; want it resident", info, ok)
	}
	if _, ok := st.Get("b"); ok {
		t.Fatal("refused put is visible")
	}
}

func TestNonDurableStoreUnaffected(t *testing.T) {
	st, err := Open(Config{MaxGraphs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("x", Source{Graph: graph.GNP(10, 0.5, rng.New(1))}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.WALMetrics(); ok {
		t.Fatal("WALMetrics reported a log on a non-durable store")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Without a log there is nothing for Close to seal: writes still work.
	if _, _, err := st.Put("y", Source{Graph: graph.GNP(10, 0.5, rng.New(2))}); err != nil {
		t.Fatalf("Put after Close on a non-durable store: %v", err)
	}
	if err := st.Delete("x"); err != nil {
		t.Fatalf("Delete after Close on a non-durable store: %v", err)
	}
}
