package service

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/wal"
)

// ledgerStack builds a durable store + service + batch engine over one pair
// of WAL directories, reusable across simulated restarts.
func ledgerStack(t *testing.T, root string) (*Service, *store.Store, *Batches) {
	t.Helper()
	st, err := store.Open(store.Config{
		WALDir:   filepath.Join(root, "store-wal"),
		SpillDir: filepath.Join(root, "spill"),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueSize: 64})
	b, err := OpenBatches(svc, st, BatchConfig{WALDir: filepath.Join(root, "batch-wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		svc.Close()
		b.Close()
		st.Close()
	})
	return svc, st, b
}

// TestLedgerRestartRestoresFinishedBatch: a cleanly finished batch survives
// a restart with the same ID, trace ID, per-cell results and per-group
// aggregates, and nothing is re-executed (the new incarnation's job
// counters stay zero).
func TestLedgerRestartRestoresFinishedBatch(t *testing.T) {
	root := t.TempDir()
	_, st, b := ledgerStack(t, root)
	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 40, P: 0.2, Seed: 5}}); err != nil {
		t.Fatal(err)
	}
	v, err := b.Submit(BatchSpec{
		Graphs: []string{"g"},
		Algos:  []string{"mwm2", "maxis"},
		Seeds:  []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := waitBatch(t, b, v.ID)
	if before.Done != before.Total {
		t.Fatalf("pre-restart batch not fully done: %+v", before)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, _, b2 := ledgerStack(t, root)
	after, ok := b2.Get(v.ID)
	if !ok {
		t.Fatalf("batch %s lost across restart", v.ID)
	}
	if after.TraceID != before.TraceID || after.State != BatchDone ||
		after.Done != before.Done || after.Total != before.Total {
		t.Fatalf("restored batch differs: before=%+v after=%+v", before, after)
	}
	for i := range before.Cells {
		bc, ac := before.Cells[i], after.Cells[i]
		if bc.TraceID != ac.TraceID || bc.State != ac.State {
			t.Fatalf("cell %d differs: %+v vs %+v", i, bc, ac)
		}
		if bc.Result.Weight != ac.Result.Weight || bc.Result.Size() != ac.Result.Size() {
			t.Fatalf("cell %d result differs across restart", i)
		}
	}
	if len(after.Groups) != len(before.Groups) {
		t.Fatalf("groups differ: %d vs %d", len(after.Groups), len(before.Groups))
	}
	for i := range before.Groups {
		bg, ag := before.Groups[i], after.Groups[i]
		if bg.Weight != ag.Weight || bg.Rounds != ag.Rounds || bg.Done != ag.Done {
			t.Fatalf("group %d aggregates differ: %+v vs %+v", i, bg, ag)
		}
	}
	if m := svc2.Metrics(); m.Submitted != 0 {
		t.Fatalf("restart re-executed %d jobs for an already-finished batch", m.Submitted)
	}
	lm, ok := b2.LedgerMetrics()
	if !ok || lm.CellsRestored != uint64(before.Total) {
		t.Fatalf("CellsRestored = %d, want %d (ok=%v)", lm.CellsRestored, before.Total, ok)
	}
}

// TestLedgerRestartResumesIncompleteBatch: a batch whose ledger holds only
// the submit record (the crash hit before any cell finished) re-runs all
// cells after restart and converges to the same results.
func TestLedgerRestartResumesIncompleteBatch(t *testing.T) {
	root := t.TempDir()
	_, st, b := ledgerStack(t, root)
	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 30, P: 0.25, Seed: 9}}); err != nil {
		t.Fatal(err)
	}

	// Reference run, then simulate a crash that preserved the submit record
	// but lost every cell record: kill the ledger WAL right after Submit's
	// synchronous commit.
	ref, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	refView := waitBatch(t, b, ref.ID)

	v, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	b.ledger.log.Kill()
	waitBatch(t, b, v.ID) // in-memory run still finishes; nothing else lands in the log
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, _, b2 := ledgerStack(t, root)
	after := waitBatch(t, b2, v.ID)
	if after.State != BatchDone || after.Done != 2 {
		t.Fatalf("resumed batch did not finish: %+v", after)
	}
	if after.TraceID != v.TraceID {
		t.Fatalf("resumed batch trace %q, want %q", after.TraceID, v.TraceID)
	}
	for i, c := range after.Cells {
		if c.TraceID != v.Cells[i].TraceID {
			t.Fatalf("cell %d trace changed across resume", i)
		}
		if c.Result.Weight != refView.Cells[i].Result.Weight {
			t.Fatalf("cell %d: resumed weight %d != reference %d", i, c.Result.Weight, refView.Cells[i].Result.Weight)
		}
	}
	if m := svc2.Metrics(); m.Submitted != 2 {
		t.Fatalf("resume submitted %d jobs, want exactly the 2 unfinished cells", m.Submitted)
	}
	// The resumed batch must leave no pins behind once terminal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := b2.st.Delete("g"); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("graph still pinned after resumed batch finished: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLedgerCancelDurable: a canceled batch stays canceled across restart
// instead of resuming.
func TestLedgerCancelDurable(t *testing.T) {
	root := t.TempDir()
	_, st, b := ledgerStack(t, root)
	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 20, P: 0.3, Seed: 2}}); err != nil {
		t.Fatal(err)
	}
	v, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cancel(v.ID); err != nil && err != ErrBatchFinished {
		t.Fatal(err)
	}
	waitBatch(t, b, v.ID)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	svc2, _, b2 := ledgerStack(t, root)
	after, ok := b2.Get(v.ID)
	if !ok {
		t.Fatalf("canceled batch %s lost", v.ID)
	}
	if !after.State.Terminal() {
		after = waitBatch(t, b2, v.ID)
	}
	if after.State != BatchCanceled && after.Canceled == 0 {
		// A cancel that raced completion may legitimately finish Done; but
		// the durable record must at least prevent un-canceling cells that
		// were already canceled.
		t.Fatalf("canceled batch resumed as %+v", after)
	}
	_ = svc2
}

// TestLedgerMutationVisibleBeforeAck: the writer goroutine may snapshot the
// engine immediately after acking a synchronous commit, and the snapshot
// supersedes the segment holding the just-synced record — so the mutation a
// commit describes must already be visible when the record hits disk.
// The hook observes the engine at sync.post, the instant before the ack is
// delivered: the submitted batch must already be registered and the canceled
// batch's cancelReq already raised. Under a commit-then-apply ordering this
// fires deterministically, not as a rare race.
func TestLedgerMutationVisibleBeforeAck(t *testing.T) {
	root := t.TempDir()
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, release := registerBlocker(t, "ledgervisible")
	svc := New(Config{Workers: 2, QueueSize: 64})

	var (
		b  *Batches
		mu sync.Mutex
		// Armed expectations, checked at every ledger sync.post.
		expectBatch  string
		expectCancel string
		violations   []string
	)
	hooks := &wal.TestHooks{CrashAt: func(point string) bool {
		if point != wal.PointSyncPost {
			return false
		}
		mu.Lock()
		wantBatch, wantCancel := expectBatch, expectCancel
		mu.Unlock()
		if wantBatch != "" {
			b.mu.Lock()
			_, ok := b.batches[wantBatch]
			b.mu.Unlock()
			if !ok {
				mu.Lock()
				violations = append(violations, "submit record synced but batch "+wantBatch+" not registered")
				mu.Unlock()
			}
		}
		if wantCancel != "" {
			b.mu.Lock()
			bt := b.batches[wantCancel]
			b.mu.Unlock()
			raised := false
			if bt != nil {
				bt.mu.Lock()
				raised = bt.cancelReq
				bt.mu.Unlock()
			}
			if !raised {
				mu.Lock()
				violations = append(violations, "cancel record synced but cancelReq not raised on "+wantCancel)
				mu.Unlock()
			}
		}
		return false
	}}
	b, err = OpenBatches(svc, st, BatchConfig{
		WALDir:   filepath.Join(root, "batch-wal"),
		WALHooks: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		svc.Close()
		b.Close()
		st.Close()
	})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	t.Cleanup(releaseAll) // LIFO: unpark the workers before svc.Close waits on them

	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 20, P: 0.3, Seed: 7}}); err != nil {
		t.Fatal(err)
	}

	// A fresh engine assigns b000001 to the first Submit, so the expectation
	// can be armed before the ID exists. The cells park on the blocker, so
	// the only ledger syncs while armed are the ones under test.
	mu.Lock()
	expectBatch = "b000001"
	mu.Unlock()
	v, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"ledgervisible"}, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	expectBatch = ""
	mu.Unlock()
	if v.ID != "b000001" {
		t.Fatalf("first batch ID = %q, the armed expectation checked nothing", v.ID)
	}

	mu.Lock()
	expectCancel = v.ID
	mu.Unlock()
	if _, err := b.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	expectCancel = ""
	mu.Unlock()

	releaseAll()
	waitBatch(t, b, v.ID)
	mu.Lock()
	defer mu.Unlock()
	for _, msg := range violations {
		t.Error(msg)
	}
}

// TestLedgerResumeWhileResumedBatchesFinish reopens a ledger holding
// finished batches and many unfinished ones whose cells are all cache hits
// in the new incarnation, so resumed batches finish — and finalize, which
// appends to the retention ring and evicts from the batch map — while
// OpenBatches is still resuming the rest. Run it with -race: the resume loop
// must not touch the ring or the map once the first batch is resumed. With
// MaxBatches 2 the ring keeps the two newest finishers, so every restored
// finished batch is evicted first.
func TestLedgerResumeWhileResumedBatchesFinish(t *testing.T) {
	const finished, unfinished = 6, 24
	started, release := registerBlocker(t, "ledger-resume-blocker")
	root := t.TempDir()
	storeCfg := store.Config{WALDir: filepath.Join(root, "store-wal"), SpillDir: filepath.Join(root, "spill")}
	batchWAL := filepath.Join(root, "batch-wal")
	blockerSpec := func(i int) BatchSpec {
		return BatchSpec{Graphs: []string{"g"}, Algos: []string{"ledger-resume-blocker"}, Seeds: []uint64{uint64(2*i + 1), uint64(2*i + 2)}}
	}

	st, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueSize: 256})
	b, err := OpenBatches(svc, st, BatchConfig{WALDir: batchWAL})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 20, P: 0.2, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	restored := make(map[string]bool)
	for i := 0; i < finished; i++ {
		v, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if waitBatch(t, b, v.ID).State != BatchDone {
			t.Fatalf("batch %s did not finish", v.ID)
		}
		restored[v.ID] = true
	}
	resumed := make(map[string]bool)
	for i := 0; i < unfinished; i++ {
		v, err := b.Submit(blockerSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		resumed[v.ID] = true
	}
	// Crash while the blockers are parked: the submit records are durable,
	// no cell of these batches ever reaches the log.
	<-started
	b.ledger.log.Kill()
	close(release)
	for id := range resumed {
		waitBatch(t, b, id)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := New(Config{Workers: 2, QueueSize: 256})
	defer svc2.Close()
	// Warm the new service's cache with every unfinished cell through an
	// unjournaled engine, so each resumed batch finishes inside its resume.
	warm := NewBatches(svc2, st2, BatchConfig{})
	for i := 0; i < unfinished; i++ {
		v, err := warm.Submit(blockerSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		waitBatch(t, warm, v.ID)
	}
	b2, err := OpenBatches(svc2, st2, BatchConfig{WALDir: batchWAL, MaxBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.Now().Add(30 * time.Second)
	for b2.Metrics().BatchesDone < unfinished {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d resumed batches finished", b2.Metrics().BatchesDone, unfinished)
		}
		time.Sleep(time.Millisecond)
	}
	kept := b2.List()
	if len(kept) != 2 {
		t.Fatalf("retained %d batches, want MaxBatches = 2", len(kept))
	}
	for _, v := range kept {
		if !resumed[v.ID] || v.State != BatchDone || v.CacheHits != v.Total {
			t.Fatalf("retained %s (state %s, %d of %d cache hits); want a resumed batch served from the cache",
				v.ID, v.State, v.CacheHits, v.Total)
		}
	}
	for id := range restored {
		if _, ok := b2.Get(id); ok {
			t.Fatalf("restored finished batch %s outlived the resumed ones", id)
		}
	}
}

// TestLedgerCrashRestartKeepsRetentionBound: without a final snapshot the
// log replays the submit record of every batch since the last snapshot,
// including the ones retention had already evicted. A restart must evict
// them again, oldest first, and count none of the finished batches as
// resumed.
func TestLedgerCrashRestartKeepsRetentionBound(t *testing.T) {
	root := t.TempDir()
	storeCfg := store.Config{WALDir: filepath.Join(root, "store-wal"), SpillDir: filepath.Join(root, "spill")}
	batchWAL := filepath.Join(root, "batch-wal")

	st, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2, QueueSize: 64})
	// Close drains every record to disk, then dies writing the final
	// snapshot: a crash that loses nothing but the snapshot.
	crashAtSnapshot := &wal.TestHooks{CrashAt: func(point string) bool { return point == wal.PointSnapTemp }}
	b, err := OpenBatches(svc, st, BatchConfig{WALDir: batchWAL, MaxBatches: 2, WALHooks: crashAtSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 20, P: 0.2, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		v, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{uint64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if waitBatch(t, b, v.ID).State != BatchDone {
			t.Fatalf("batch %s did not finish", v.ID)
		}
		ids = append(ids, v.ID)
	}
	if _, ok := b.Get(ids[0]); ok {
		t.Fatalf("%s retained before the crash, want it evicted", ids[0])
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := New(Config{Workers: 2, QueueSize: 64})
	defer svc2.Close()
	b2, err := OpenBatches(svc2, st2, BatchConfig{WALDir: batchWAL, MaxBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	lm, _ := b2.LedgerMetrics()
	if lm.ReplayedSnapshots != 0 || lm.ReplayedRecords == 0 {
		t.Fatalf("replayed %d snapshots and %d records, want the records alone", lm.ReplayedSnapshots, lm.ReplayedRecords)
	}
	var kept []string
	for _, v := range b2.List() {
		kept = append(kept, v.ID)
	}
	slices.Sort(kept)
	if want := ids[4:]; !slices.Equal(kept, want) {
		t.Fatalf("retained %v after the restart, want the newest MaxBatches = 2: %v", kept, want)
	}
	if _, ok := b2.Get(ids[0]); ok {
		t.Fatalf("evicted batch %s is visible again after the restart", ids[0])
	}
	if lm.BatchesResumed != 0 {
		t.Fatalf("BatchesResumed = %d with nothing resumed", lm.BatchesResumed)
	}
	if m := b2.Metrics(); m.BatchCells != 2 {
		t.Fatalf("BatchCells = %d, want the 2 cells of the retained batches", m.BatchCells)
	}
}

// TestLedgerCacheHitKeepsJobIDAcrossCrash: a cell that settles inside the
// job engine's submit — here a cache hit — is journaled with the job ID it
// was served under, so a restart that replays the log without a snapshot
// restores that job ID and counts the cell as submitted, as it was served.
func TestLedgerCacheHitKeepsJobIDAcrossCrash(t *testing.T) {
	root := t.TempDir()
	storeCfg := store.Config{WALDir: filepath.Join(root, "store-wal"), SpillDir: filepath.Join(root, "spill")}
	batchWAL := filepath.Join(root, "batch-wal")

	st, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, QueueSize: 64})
	// Close drains every record to disk, then dies writing the final
	// snapshot, so the restart replays the records themselves.
	crashAtSnapshot := &wal.TestHooks{CrashAt: func(point string) bool { return point == wal.PointSnapTemp }}
	b, err := OpenBatches(svc, st, BatchConfig{WALDir: batchWAL, WALHooks: crashAtSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("g", store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 20, P: 0.2, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	spec := BatchSpec{Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{1}}
	warm, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b, warm.ID)
	v, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	served := waitBatch(t, b, v.ID)
	if c := served.Cells[0]; !c.CacheHit || c.JobID == "" || served.Submitted != 1 {
		t.Fatalf("want a served cache hit with a job ID, got cell %+v, submitted %d", c, served.Submitted)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(storeCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := New(Config{Workers: 1, QueueSize: 64})
	defer svc2.Close()
	b2, err := OpenBatches(svc2, st2, BatchConfig{WALDir: batchWAL})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if lm, _ := b2.LedgerMetrics(); lm.ReplayedSnapshots != 0 {
		t.Fatalf("replayed %d snapshots, want the records alone", lm.ReplayedSnapshots)
	}
	after, ok := b2.Get(v.ID)
	if !ok {
		t.Fatalf("batch %s lost across the restart", v.ID)
	}
	if got, want := after.Cells[0].JobID, served.Cells[0].JobID; got != want {
		t.Errorf("restored cell job ID %q, served %q", got, want)
	}
	if after.Submitted != served.Submitted {
		t.Errorf("restored batch submitted %d, served %d", after.Submitted, served.Submitted)
	}
}
