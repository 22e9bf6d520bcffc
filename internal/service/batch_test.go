package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/store"
)

func newBatchFixture(t *testing.T, cfg Config, bcfg BatchConfig) (*Batches, *Service, *store.Store) {
	t.Helper()
	svc := New(cfg)
	st := store.New(store.Config{})
	t.Cleanup(svc.Close)
	return NewBatches(svc, st, bcfg), svc, st
}

func putGNP(t *testing.T, st *store.Store, name string, n int, seed uint64) {
	t.Helper()
	_, _, err := st.Put(name, store.Source{
		Gen:       "gnp",
		GenParams: registry.GenParams{N: n, P: 0.2, Seed: seed, MaxW: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func waitBatch(t *testing.T, b *Batches, id string) BatchView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := b.Wait(context.Background(), id, 100*time.Millisecond)
		if !ok {
			t.Fatalf("batch %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("batch %s never finished", id)
	return BatchView{}
}

func TestExpandGrid(t *testing.T) {
	sp := BatchSpec{
		Graphs: []string{"a", "b"},
		Algos:  []string{"mwm2", "fastmcm"},
		Eps:    []float64{0.5, 1},
		Seeds:  []uint64{1, 2, 3},
	}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2*3 {
		t.Fatalf("expanded %d cells, want 24", len(cells))
	}
	// Graph-major, seed-minor order.
	if cells[0].Graph != "a" || cells[0].Algo != "mwm2" || cells[0].Params.Seed != 1 {
		t.Fatalf("first cell %+v", cells[0])
	}
	if cells[1].Params.Seed != 2 {
		t.Fatalf("second cell %+v", cells[1])
	}

	if _, err := (BatchSpec{}).Expand(); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := (BatchSpec{Graphs: []string{"a"}}).Expand(); err == nil {
		t.Fatal("spec without algos accepted")
	}
	both := BatchSpec{Graphs: []string{"a"}, Cells: []BatchCell{{Graph: "a", Algo: "mwm2"}}}
	if _, err := both.Expand(); err == nil {
		t.Fatal("cells + grid axes accepted")
	}
}

func TestBatchRunsGridAndAggregates(t *testing.T) {
	b, _, st := newBatchFixture(t, Config{Workers: 4}, BatchConfig{})
	putGNP(t, st, "g", 24, 7)

	v, err := b.Submit(BatchSpec{
		Graphs: []string{"g"},
		Algos:  []string{"mwm2", "maxis"},
		Seeds:  []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Total != 6 {
		t.Fatalf("total %d, want 6", v.Total)
	}
	fin := waitBatch(t, b, v.ID)
	if fin.State != BatchDone || fin.Done != 6 || fin.Failed != 0 {
		t.Fatalf("final view %+v", fin)
	}
	if len(fin.Groups) != 2 {
		t.Fatalf("%d groups, want 2 (one per algo)", len(fin.Groups))
	}
	for _, g := range fin.Groups {
		if g.Runs != 3 || g.Done != 3 {
			t.Fatalf("group %+v", g)
		}
		if g.Rounds.N != 3 || g.Weight.Mean <= 0 {
			t.Fatalf("group stats %+v", g)
		}
		if g.Params.Seed != 0 {
			t.Fatalf("group params retain a seed: %+v", g.Params)
		}
	}
	// Each cell carries its member job's result.
	for _, c := range fin.Cells {
		if c.State != Done || c.Result == nil || c.JobID == "" {
			t.Fatalf("cell %+v", c)
		}
	}

	// The graph was pinned during the run and is free again now.
	if err := st.Delete("g"); err != nil {
		t.Fatalf("delete after batch: %v", err)
	}
}

func TestBatchPinsGraphUntilDone(t *testing.T) {
	b, _, st := newBatchFixture(t, Config{Workers: 1}, BatchConfig{})
	putGNP(t, st, "pinned", 600, 3)

	v, err := b.Submit(BatchSpec{
		Graphs: []string{"pinned"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// While the batch runs, the store must refuse deletion.
	if err := st.Delete("pinned"); !errors.Is(err, store.ErrPinned) {
		t.Fatalf("delete during batch: %v", err)
	}
	waitBatch(t, b, v.ID)
	if err := st.Delete("pinned"); err != nil {
		t.Fatalf("delete after batch: %v", err)
	}
}

func TestBatchCacheAccounting(t *testing.T) {
	b, svc, st := newBatchFixture(t, Config{Workers: 2}, BatchConfig{})
	putGNP(t, st, "g", 20, 5)

	sp := BatchSpec{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2}}
	v1, err := b.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b, v1.ID)
	// Identical batch: every member is a cache hit.
	v2, err := b.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, b, v2.ID)
	if fin.CacheHits != 2 {
		t.Fatalf("cache hits %d, want 2", fin.CacheHits)
	}

	m := svc.Metrics()
	if m.BatchMembers != 4 {
		t.Fatalf("batch members %d, want 4", m.BatchMembers)
	}
	if m.BatchCacheHits != 2 || m.BatchCacheMisses != 2 {
		t.Fatalf("batch cache hits/misses %d/%d, want 2/2", m.BatchCacheHits, m.BatchCacheMisses)
	}
	// Single-job counters untouched by batch traffic.
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("single-job cache counters %d/%d, want 0/0", m.CacheHits, m.CacheMisses)
	}
	bm := b.Metrics()
	if bm.BatchesSubmitted != 2 || bm.BatchesDone != 2 || bm.BatchCells != 4 {
		t.Fatalf("engine metrics %+v", bm)
	}
}

func TestBatchCancelFanOut(t *testing.T) {
	// One worker and slow members: cancel must reach queued members and
	// unsubmitted cells.
	b, _, st := newBatchFixture(t, Config{Workers: 1, QueueSize: 4}, BatchConfig{})
	putGNP(t, st, "slow", 1200, 11)

	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	v, err := b.Submit(BatchSpec{Graphs: []string{"slow"}, Algos: []string{"maxis"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := b.Cancel(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cv.State.Terminal() && cv.State != BatchCanceled {
		t.Fatalf("state after cancel: %s", cv.State)
	}
	fin := waitBatch(t, b, v.ID)
	if fin.State != BatchCanceled {
		t.Fatalf("final state %s, want canceled", fin.State)
	}
	if fin.Canceled == 0 {
		t.Fatal("no members were canceled")
	}
	if fin.Done+fin.Failed+fin.Canceled != fin.Total {
		t.Fatalf("terminal accounting off: %+v", fin)
	}
	// Cancel of a finished batch conflicts; the pin is gone.
	if _, err := b.Cancel(v.ID); !errors.Is(err, ErrBatchFinished) {
		t.Fatalf("re-cancel: %v", err)
	}
	if err := st.Delete("slow"); err != nil {
		t.Fatalf("delete after canceled batch: %v", err)
	}
}

func TestBatchCancelWhileQueueSaturated(t *testing.T) {
	// One worker, one queue slot, both occupied by slow single jobs: the
	// batch feeder spins on ErrQueueFull. Cancel must still terminate the
	// batch (and release its pin) without waiting for the queue to drain.
	b, svc, st := newBatchFixture(t, Config{Workers: 1, QueueSize: 1}, BatchConfig{})
	started, release := registerBlocker(t, "park-satq")
	t.Cleanup(func() { close(release) }) // after the fixture: runs before svc.Close
	putGNP(t, st, "g", 16, 1)

	if _, err := svc.Submit(Request{Algo: "park-satq", Graph: smallGraph(1)}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is parked in the first blocker...
	if _, err := svc.Submit(Request{Algo: "park-satq", Graph: smallGraph(2)}); err != nil {
		t.Fatal(err) // ...and the second owns the lone queue slot
	}

	v, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, b, v.ID)
	if fin.State != BatchCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	if err := st.Delete("g"); err != nil {
		t.Fatalf("pin survived canceled batch: %v", err)
	}
}

func TestBatchValidation(t *testing.T) {
	b, _, st := newBatchFixture(t, Config{Workers: 1}, BatchConfig{MaxCells: 4})
	putGNP(t, st, "g", 16, 1)

	if _, err := b.Submit(BatchSpec{Graphs: []string{"nope"}, Algos: []string{"mwm2"}}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unknown graph: %v", err)
	}
	if _, err := b.Submit(BatchSpec{Graphs: []string{"g"}, Algos: []string{"quantum"}}); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if _, err := b.Submit(BatchSpec{
		Graphs: []string{"g"}, Algos: []string{"fastmcm"}, Eps: []float64{-1},
	}); err == nil {
		t.Fatal("invalid eps accepted")
	}
	if _, err := b.Submit(BatchSpec{
		Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2, 3, 4, 5},
	}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	// Validation failures must leave no pins behind.
	if err := st.Delete("g"); err != nil {
		t.Fatalf("delete after rejected batches: %v", err)
	}

	if _, ok := b.Get("b999999"); ok {
		t.Fatal("Get of unknown batch succeeded")
	}
	if _, err := b.Cancel("b999999"); !errors.Is(err, ErrBatchNotFound) {
		t.Fatalf("cancel of unknown batch: %v", err)
	}
}

func TestBatchExplicitCellsAndList(t *testing.T) {
	b, _, st := newBatchFixture(t, Config{Workers: 2}, BatchConfig{})
	putGNP(t, st, "g1", 16, 1)
	putGNP(t, st, "g2", 18, 2)

	v, err := b.Submit(BatchSpec{Cells: []BatchCell{
		{Graph: "g1", Algo: "mwm2", Params: registry.Params{Seed: 1}},
		{Graph: "g2", Algo: "maxis", Params: registry.Params{Seed: 2}},
		{Graph: "g1", Algo: "nmis", Params: registry.Params{Seed: 3, Delta: 0.2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, b, v.ID)
	if fin.Done != 3 {
		t.Fatalf("done %d, want 3: %+v", fin.Done, fin)
	}
	if len(fin.Groups) != 3 {
		t.Fatalf("%d groups, want 3", len(fin.Groups))
	}

	ls := b.List()
	if len(ls) != 1 || ls[0].ID != v.ID || ls[0].Cells != nil {
		t.Fatalf("list %+v", ls)
	}
}
