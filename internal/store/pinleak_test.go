// Pin-leak regression tests: every Acquire a batch takes must be released
// by the time the batch is terminal, whatever path it took there —
// completion, mid-flight cancellation, or cluster-side worker failure (the
// cluster variant lives in internal/cluster, which this package must not
// import). A leaked pin makes the graph undeletable forever, so the check
// is Delete succeeding after the batch ends.
package store_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

func newBatchStack(t *testing.T, workers, queue int) (*service.Service, *store.Store, *service.Batches) {
	t.Helper()
	svc := service.New(service.Config{Workers: workers, QueueSize: queue})
	t.Cleanup(svc.Close)
	st := store.New(store.Config{})
	return svc, st, service.NewBatches(svc, st, service.BatchConfig{})
}

func putGen(t *testing.T, st *store.Store, name string, n int, p float64, seed uint64) {
	t.Helper()
	src := store.Source{Gen: "gnp", GenParams: registry.GenParams{N: n, P: p, Seed: seed}}
	if _, _, err := st.Put(name, src); err != nil {
		t.Fatal(err)
	}
}

func waitTerminal(t *testing.T, batches *service.Batches, id string) service.BatchView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := batches.Wait(context.Background(), id, time.Second)
		if !ok {
			t.Fatalf("batch %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("batch %s never finished", id)
	return service.BatchView{}
}

// TestBatchCancelMidFlightReleasesPins cancels a batch whose members are
// genuinely in flight on a saturated one-worker pool and asserts the pin
// count returns to zero: Delete succeeds, where it conflicted mid-batch.
func TestBatchCancelMidFlightReleasesPins(t *testing.T) {
	_, st, batches := newBatchStack(t, 1, 4)
	putGen(t, st, "pinned", 1200, 0.01, 5)

	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	v, err := batches.Submit(service.BatchSpec{
		Graphs: []string{"pinned"},
		Algos:  []string{"maxis"},
		Seeds:  seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mid-flight the graph must be pinned and undeletable.
	if info, _ := st.Get("pinned"); info.Pins == 0 {
		t.Fatal("running batch holds no pin")
	}
	if err := st.Delete("pinned"); err == nil {
		t.Fatal("delete succeeded while the batch pinned the graph")
	}

	if _, err := batches.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, batches, v.ID)
	if fin.State != service.BatchCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}

	info, ok := st.Get("pinned")
	if !ok {
		t.Fatal("graph vanished")
	}
	if info.Pins != 0 {
		t.Fatalf("%d pins leaked after cancel", info.Pins)
	}
	if err := st.Delete("pinned"); err != nil {
		t.Fatalf("delete after canceled batch: %v", err)
	}
}

// TestBatchCompletionReleasesPins is the happy-path counterpart: a batch
// that runs to completion leaves zero pins behind.
func TestBatchCompletionReleasesPins(t *testing.T) {
	_, st, batches := newBatchStack(t, 2, 16)
	putGen(t, st, "done-g", 32, 0.2, 9)

	v, err := batches.Submit(service.BatchSpec{
		Graphs: []string{"done-g"},
		Algos:  []string{"mwm2"},
		Seeds:  []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, batches, v.ID)
	if fin.State != service.BatchDone || fin.Done != 3 {
		t.Fatalf("batch %+v", fin)
	}
	if info, _ := st.Get("done-g"); info.Pins != 0 {
		t.Fatalf("%d pins leaked after completion", info.Pins)
	}
	if err := st.Delete("done-g"); err != nil {
		t.Fatalf("delete after done batch: %v", err)
	}
}
