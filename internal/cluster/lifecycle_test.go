package cluster

// Lifecycle tests for the batch record the coordinator shares with the
// single-node engine: retention is checked against both backends through
// one table, and Drain against concurrent submitters.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// TestBatchRetentionBothBackends: with MaxBatches=2, once three batches have
// finished the oldest is gone from Get, List and GET /v1/batches/{id} (404),
// on a single node and on a coordinator alike.
func TestBatchRetentionBothBackends(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (*store.Store, *service.Batches, http.Handler)
	}{
		{"single-node", func(t *testing.T) (*store.Store, *service.Batches, http.Handler) {
			svc := service.New(service.Config{Workers: 2})
			t.Cleanup(svc.Close)
			st := store.New(store.Config{})
			batches := service.NewBatches(svc, st, service.BatchConfig{MaxBatches: 2})
			return st, batches, httpapi.NewHandler(svc, st, batches)
		}},
		{"coordinator", func(t *testing.T) (*store.Store, *service.Batches, http.Handler) {
			coord, _ := newFleet(t, 2, func(cfg *Config) { cfg.MaxBatches = 2 })
			return coord.Store(), coord.Batches(), httpapi.NewClusterHandler(coord)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, b, h := tc.start(t)
			ts := httptest.NewServer(h)
			t.Cleanup(ts.Close)
			if _, _, err := st.Put("ret-g", gnpSource(24, 0.2, 91, 16)); err != nil {
				t.Fatal(err)
			}
			var ids []string
			for seed := uint64(1); seed <= 3; seed++ {
				v, err := b.Submit(service.BatchSpec{
					Graphs: []string{"ret-g"}, Algos: []string{"maxis"}, Seeds: []uint64{seed},
				})
				if err != nil {
					t.Fatal(err)
				}
				if fin, ok := b.Wait(context.Background(), v.ID, 30*time.Second); !ok || !fin.State.Terminal() {
					t.Fatalf("batch %s did not finish: %+v", v.ID, fin)
				}
				ids = append(ids, v.ID)
			}

			if _, ok := b.Get(ids[0]); ok {
				t.Fatalf("oldest batch %s still retained", ids[0])
			}
			var listed []string
			for _, v := range b.List() {
				listed = append(listed, v.ID)
			}
			if len(listed) != 2 || listed[0] != ids[1] || listed[1] != ids[2] {
				t.Fatalf("listed %v, want %v", listed, ids[1:])
			}
			c := httpapi.NewClient(ts.URL, nil)
			var apiErr *httpapi.APIError
			if _, err := c.GetBatch(context.Background(), ids[0], 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
				t.Fatalf("GET evicted batch: %v, want 404", err)
			}
			if _, err := c.GetBatch(context.Background(), ids[2], 0); err != nil {
				t.Fatalf("GET retained batch: %v", err)
			}
		})
	}
}

// TestDrainWaitsForEveryAcceptedBatch races four submitters (eight batches
// each) against Drain: every batch Submit accepted must have finished
// by the time Drain returns true, and every later submission is refused
// with ErrDraining.
func TestDrainWaitsForEveryAcceptedBatch(t *testing.T) {
	_, workers := newFleet(t, 2, nil)
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	for trial := 0; trial < 20; trial++ {
		coord, err := New(Config{
			Workers: urls, Window: 2, HTTPClient: &http.Client{Timeout: 5 * time.Second},
			PollInterval: time.Millisecond, MaxBatches: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		putGen(t, coord, "drain-g", gnpSource(16, 0.2, 97, 16))

		var (
			mu       sync.Mutex
			accepted []string
			wg       sync.WaitGroup
		)
		first := make(chan struct{})
		var once sync.Once
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := uint64(1); seed <= 8; seed++ {
					v, err := coord.Batches().Submit(service.BatchSpec{
						Graphs: []string{"drain-g"}, Algos: []string{"maxis"}, Seeds: []uint64{seed},
					})
					if errors.Is(err, service.ErrDraining) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					accepted = append(accepted, v.ID)
					mu.Unlock()
					once.Do(func() { close(first) })
				}
			}()
		}
		<-first
		if !coord.Drain(30 * time.Second) {
			t.Fatalf("trial %d: drain timed out", trial)
		}
		drained := time.Now()
		wg.Wait()
		for _, id := range accepted {
			v, ok := coord.Batches().Get(id)
			if !ok || !v.State.Terminal() || v.FinishedAt.After(drained) {
				t.Fatalf("trial %d: batch %s accepted but not finished when Drain returned (%+v)", trial, id, v)
			}
		}
		if _, err := coord.Batches().Submit(service.BatchSpec{Graphs: []string{"drain-g"}, Algos: []string{"maxis"}}); !errors.Is(err, service.ErrDraining) {
			t.Fatalf("trial %d: submit after drain: %v, want ErrDraining", trial, err)
		}
		coord.Close()
	}
}
