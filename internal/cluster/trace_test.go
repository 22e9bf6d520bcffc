package cluster

import (
	"bytes"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// syncBuffer makes a bytes.Buffer safe as an slog sink: the coordinator logs
// from many goroutines concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceSurvivesRetry is the trace-propagation acceptance scenario: one
// caller-chosen trace ID must be visible at every hop — the batch view, each
// cell's derived child ID, the worker-side job group that actually ran the
// cell, and the coordinator's span-event log — even when a worker dies
// mid-batch and groups are retried onto new hosts.
func TestTraceSurvivesRetry(t *testing.T) {
	const trace = "feedface00c0ffee"
	graphs := []namedSource{
		{"tr-a", gnpSource(500, 0.015, 41, 64)},
		{"tr-b", gnpSource(520, 0.014, 42, 64)},
	}
	spec := service.BatchSpec{
		Graphs:  []string{"tr-a", "tr-b"},
		Algos:   []string{"maxis"},
		Seeds:   []uint64{1, 2, 3, 4, 5, 6},
		TraceID: trace,
	}

	logs := &syncBuffer{}
	coord, workers := newFleet(t, 3, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewTextHandler(logs, nil))
		// Small groups so the batch finishes cell-by-cell: the kill must land
		// while the victim still has undispatched groups to retry.
		cfg.GroupSize = 2
	})
	for _, g := range graphs {
		putGen(t, coord, g.name, g.src)
	}
	v, err := coord.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != trace {
		t.Fatalf("submit view trace %q, want %q", v.TraceID, trace)
	}

	// Let the batch make progress, then kill the worker owning the first
	// graph so its remaining cells retry onto the survivors.
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
	info, _ := coord.Store().Get("tr-a")
	victim := coord.owner(info.Fingerprint)
	if victim == nil {
		t.Fatal("no owner for tr-a")
	}
	findWorker(t, workers, victim.url).proxy.set(faultKill)

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch after kill: state %s done %d/%d failed %d",
			fin.State, fin.Done, fin.Total, fin.Failed)
	}
	if coord.cellRetries.Load() == 0 {
		t.Fatal("kill produced no retries; the retry hop was not exercised")
	}
	if fin.TraceID != trace {
		t.Fatalf("final view trace %q, want %q", fin.TraceID, trace)
	}

	// Every cell carries the derived child ID, and the worker-side job group
	// that finally ran it stamped that exact ID on the cell's seed entry.
	for _, cell := range fin.Cells {
		want := obs.ChildTraceID(trace, cell.Index)
		if cell.TraceID != want {
			t.Fatalf("cell %d trace %q, want %q", cell.Index, cell.TraceID, want)
		}
		wid, groupID, ok := strings.Cut(cell.JobID, ":")
		if !ok || !strings.HasPrefix(wid, "w") {
			t.Fatalf("cell %d job ref %q is not w<id>:<groupID>", cell.Index, cell.JobID)
		}
		idx, err := strconv.Atoi(wid[1:])
		if err != nil || idx < 0 || idx >= len(workers) {
			t.Fatalf("cell %d job ref %q names unknown worker", cell.Index, cell.JobID)
		}
		gv, ok := workers[idx].svc.GetGroup(groupID)
		if !ok {
			t.Fatalf("cell %d: group %s not found on worker %d", cell.Index, groupID, idx)
		}
		found := false
		for _, gc := range gv.Cells {
			if gc.TraceID == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cell %d: no cell of worker-side group %s carries trace %q", cell.Index, groupID, want)
		}
	}

	// The span-event log tells the same story under the same IDs: the batch
	// was submitted under the caller's trace, and at least one retry event
	// carries a derived cell trace.
	got := logs.String()
	if !strings.Contains(got, "event=batch_submit") || !strings.Contains(got, "trace="+trace) {
		t.Fatalf("log missing batch_submit under trace %s:\n%s", trace, got)
	}
	retried := false
	for line := range strings.Lines(got) {
		if strings.Contains(line, "event=group_retry") && strings.Contains(line, "trace="+trace+".") {
			retried = true
			break
		}
	}
	if !retried {
		t.Fatalf("log has no group_retry event tagged with a child of %s:\n%s", trace, got)
	}
}
