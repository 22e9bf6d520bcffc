package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestDeadWorkerJournalReplacesGroup: the store journal of the worker that
// owns a graph dies (a failed disk) before a batch runs, so the worker can
// no longer register the coordinator's upload. That is a fault on the
// worker's side: it answers 503, the coordinator counts a worker failure
// and re-places the group on the other worker, and every cell finishes
// done. A 4xx here would fail every cell for good.
func TestDeadWorkerJournalReplacesGroup(t *testing.T) {
	const n = 2
	logs := make([]*wal.Log, n)
	urls := make([]string, n)
	for i := range n {
		st, err := store.Open(store.Config{WALDir: t.TempDir(),
			WALHooks: &wal.TestHooks{OnOpen: func(l *wal.Log) { logs[i] = l }}})
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{Workers: 2, QueueSize: 64})
		ts := httptest.NewServer(httpapi.NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{})))
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
			st.Close()
		})
	}
	coord, err := New(Config{
		Workers:      urls,
		Window:       2,
		HTTPClient:   &http.Client{Timeout: 2 * time.Second},
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	info := putGen(t, coord, "dead-wal", gnpSource(40, 0.2, 7, 16))
	owner := coord.owner(info.Fingerprint)
	logs[owner.id].Kill()
	v, err := coord.Batches().Submit(service.BatchSpec{
		Graphs: []string{"dead-wal"}, Algos: []string{"maxis"}, Seeds: []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch: state %s, done %d of %d, first cell error %q",
			fin.State, fin.Done, fin.Total, fin.Cells[0].Error)
	}
	if m := coord.Metrics(); m.WorkerFailures == 0 || m.CellRetries == 0 {
		t.Fatalf("worker failures %d, cell retries %d: the dead journal was not blamed on the worker",
			m.WorkerFailures, m.CellRetries)
	}
	for _, w := range coord.View().Workers {
		if w.URL == owner.url && (w.Healthy || w.Failures == 0) {
			t.Fatalf("owner %s: healthy %t, failures %d after its journal died", w.URL, w.Healthy, w.Failures)
		}
	}
}
