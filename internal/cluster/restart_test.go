package cluster

// Fleet restart harness: one worker of three dies mid-batch and comes back
// as a fresh process on the same listener address, its graph store reopened
// from the same WAL + spill directories. The coordinator must re-place the
// dead worker's cells while it is down, re-admit it via health probing, and
// finish the batch with aggregates identical to a single-node run — and the
// revived worker must recover its uploaded graphs from its own WAL, so the
// coordinator's post-revival re-uploads hit the idempotent re-put path
// instead of shipping bytes to an amnesiac.

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// durableWorkerStack builds one worker stack whose graph store journals to
// root, reusable across simulated restarts of the same worker.
func durableWorkerStack(t *testing.T, root string) (*service.Service, *store.Store, http.Handler) {
	t.Helper()
	st, err := store.Open(store.Config{
		WALDir:   filepath.Join(root, "wal"),
		SpillDir: filepath.Join(root, "spill"),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, QueueSize: 64})
	return svc, st, httpapi.NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{}))
}

// TestWorkerRestartsMidBatch extends TestWorkerKilledMidBatch: instead of
// staying dead, the killed worker restarts on the same address and WAL
// directories and rejoins the fleet mid-batch.
func TestWorkerRestartsMidBatch(t *testing.T) {
	graphs := []namedSource{
		{"rst-a", gnpSource(500, 0.015, 41, 64)},
		{"rst-b", gnpSource(520, 0.014, 42, 64)},
		{"rst-c", gnpSource(540, 0.013, 43, 64)},
	}
	spec := service.BatchSpec{
		Graphs: []string{"rst-a", "rst-b", "rst-c"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}

	// Fleet of three durable workers (any of them may own rst-a) behind
	// fault proxies, with fast health probing so the revived worker is
	// re-admitted while the batch is still running.
	const n = 3
	workers := make([]*testWorker, n)
	roots := make([]string, n)
	urls := make([]string, n)
	for i := range workers {
		roots[i] = t.TempDir()
		svc, st, h := durableWorkerStack(t, roots[i])
		proxy := &faultProxy{inner: h, unblock: make(chan struct{})}
		ts := httptest.NewServer(proxy)
		workers[i] = &testWorker{ts: ts, svc: svc, st: st, proxy: proxy}
		urls[i] = ts.URL
		t.Cleanup(func() {
			close(proxy.unblock)
			ts.Close()
			workers[i].svc.Close()
			workers[i].st.Close()
		})
	}
	coord, err := New(Config{
		Workers:       urls,
		Window:        2,
		HTTPClient:    &http.Client{Timeout: 2 * time.Second},
		PollInterval:  time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	for _, g := range graphs {
		putGen(t, coord, g.name, g.src)
	}
	v, err := coord.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let the batch make progress, then kill the owner of the first graph.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := coord.Batches().Get(v.ID)
		if cur.Done >= 1 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("batch reached %+v before any cell completed", cur)
		}
		time.Sleep(time.Millisecond)
	}
	info, _ := coord.Store().Get("rst-a")
	victim := coord.owner(info.Fingerprint)
	if victim == nil {
		t.Fatal("no owner for rst-a")
	}
	idx := -1
	for i, w := range workers {
		if w.ts.URL == victim.url {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no test worker at %s", victim.url)
	}
	tw := workers[idx]
	tw.proxy.set(faultKill)
	// The old process image drains and dies; its WAL keeps every binding it
	// acknowledged.
	tw.svc.Close()
	if err := tw.st.Close(); err != nil {
		t.Fatal(err)
	}
	// Count only now: an upload already past the proxy when the kill landed
	// either committed before Close or was refused by the closed store, so
	// the closed store lists exactly the graphs it acknowledged.
	acked := len(tw.st.List())

	// Restart: a fresh stack on the same directories, served through the
	// same listener, visible to the coordinator at the same URL.
	svc2, st2, h2 := durableWorkerStack(t, roots[idx])
	t.Cleanup(func() {
		svc2.Close()
		st2.Close()
	})
	if got := len(st2.List()); got != acked {
		t.Fatalf("restarted worker recovered %d graphs, acknowledged %d before the kill", got, acked)
	}
	tw.proxy.swap(h2)
	tw.proxy.set(faultOff)
	// Keep the harness pointing at the live incarnation (the t.Cleanup
	// registered at fleet construction closes the old one, already closed —
	// Close is idempotent on both).
	tw.svc, tw.st = svc2, st2

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total || fin.Failed != 0 {
		for _, cell := range fin.Cells {
			if cell.State != service.Done {
				t.Logf("cell %d (%s on %s): %s: %s", cell.Index, cell.Algo, cell.Graph, cell.State, cell.Error)
			}
		}
		t.Fatalf("batch after restart: %+v", fin.Groups)
	}
	if fin.Submitted > fin.Total {
		t.Fatalf("submitted %d > total %d after retries", fin.Submitted, fin.Total)
	}

	// Results must match a single-node run bit for bit, restart or not.
	want := singleNodeRun(t, graphs, spec)
	assertSameOutcomes(t, want, fin)

	// The revived worker is back on the ring: probes re-admit it.
	probeDeadline := time.Now().Add(30 * time.Second)
	for {
		if coord.Probe() == len(workers) {
			break
		}
		if time.Now().After(probeDeadline) {
			t.Fatalf("restarted worker never re-admitted: %+v", coord.View().Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And it still answers for its recovered graphs: deleting every name on
	// the coordinator fans out to the fleet without pin leaks.
	for _, g := range graphs {
		if err := coord.DeleteGraph(g.name); err != nil {
			t.Fatalf("delete %s after restarted batch: %v", g.name, err)
		}
	}
}
