package cluster

import (
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// TestOversizedUploadFailsCellNotWorker is the 413 triage contract: a worker
// rejecting a graph upload as too large is a deterministic, payload-bound
// failure — the coordinator must fail that cell terminally (retrying the same
// bytes anywhere would 413 identically) without marking the worker unhealthy
// or burning retry budget, and unrelated cells on the same workers must still
// complete.
func TestOversizedUploadFailsCellNotWorker(t *testing.T) {
	// Every worker caps request bodies at 2 KiB; the big graph's binary
	// encoding is far over it, the small one fits comfortably.
	coord, _ := newFleet(t, 2, nil, httpapi.WithMaxBodyBytes(2048))
	putGen(t, coord, "big", gnpSource(200, 0.2, 7, 40))
	putGen(t, coord, "small", gnpSource(16, 0.2, 8, 40))

	v, err := coord.Batches().Submit(service.BatchSpec{
		Graphs: []string{"big", "small"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone {
		t.Fatalf("batch state %s, want %s", fin.State, service.BatchDone)
	}

	for _, cell := range fin.Cells {
		switch cell.Graph {
		case "big":
			if cell.State != service.Failed {
				t.Fatalf("big cell state %s (err %q), want failed", cell.State, cell.Error)
			}
			if !strings.Contains(cell.Error, "413") {
				t.Fatalf("big cell error %q does not surface the 413", cell.Error)
			}
		case "small":
			if cell.State != service.Done {
				t.Fatalf("small cell state %s (err %q), want done", cell.State, cell.Error)
			}
		default:
			t.Fatalf("unexpected cell graph %q", cell.Graph)
		}
	}

	// The rejection indicted the payload, not the fleet: no worker was marked
	// down, no retry was spent, and no worker-level failure was recorded.
	m := coord.Metrics()
	if m.CellRetries != 0 || m.WorkerFailures != 0 {
		t.Fatalf("retries=%d workerFailures=%d, want 0/0", m.CellRetries, m.WorkerFailures)
	}
	for _, w := range coord.View().Workers {
		if !w.Healthy || w.Failures != 0 {
			t.Fatalf("worker %s healthy=%t failures=%d after a 413", w.URL, w.Healthy, w.Failures)
		}
	}
}
