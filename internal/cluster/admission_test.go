package cluster

import (
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// refusalCounter counts the 503s a worker stack answers.
type refusalCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c refusalCounter) WriteHeader(code int) {
	if code == http.StatusServiceUnavailable {
		c.n.Add(1)
	}
	c.ResponseWriter.WriteHeader(code)
}

// TestFleetBacksOffFullWorkerQueues: a worker admits a job group's seeds
// into its bounded queue all or none, so with a queue smaller than the
// coordinator's window × GroupSize some group submissions answer 503
// queue_full. The coordinator backs off and retries them on the same
// worker, and the batch completes identical to a single-node run.
func TestFleetBacksOffFullWorkerQueues(t *testing.T) {
	graphs := []namedSource{
		{"full-a", gnpSource(400, 0.02, 61, 64)},
		{"full-b", gnpSource(420, 0.02, 62, 64)},
		{"full-c", gnpSource(440, 0.02, 63, 64)},
	}
	spec := service.BatchSpec{
		Graphs: []string{"full-a", "full-b", "full-c"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	coord, workers := newFleet(t, 2, func(cfg *Config) {
		cfg.Window = 4
		cfg.GroupSize = 4
	})
	// Swap every worker's stack for a one-executor one whose queue holds a
	// single group: 4 < Window × GroupSize = 16.
	var refused atomic.Int64
	for _, w := range workers {
		svc := service.New(service.Config{Workers: 1, QueueSize: 4})
		t.Cleanup(svc.Close)
		st := store.New(store.Config{})
		h := httpapi.NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{}))
		w.proxy.swap(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(refusalCounter{rw, &refused}, r)
		}))
	}

	fin := clusterRun(t, coord, graphs, spec)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch against full worker queues: state %s, done %d of %d", fin.State, fin.Done, fin.Total)
	}
	if refused.Load() == 0 {
		t.Fatal("no worker ever refused a group: the queues never filled")
	}
	if n := coord.workerFailures.Load(); n != 0 {
		t.Fatalf("%d worker failures: queue_full must back off, not mark workers down", n)
	}
	assertSameOutcomes(t, singleNodeRun(t, graphs, spec), fin)
}

// TestFleetDrainReplacesQueuedGroup: a worker drains mid-batch and then
// stops answering, the order in which reprod drains and then closes its
// listener. Drain abandons the group's queued seeds like queued jobs, so the
// worker-side group never finishes; the coordinator re-places the group on
// the surviving worker, and the batch completes identical to a single-node
// run.
func TestFleetDrainReplacesQueuedGroup(t *testing.T) {
	graphs := []namedSource{{"drain-a", gnpSource(800, 0.01, 71, 64)}}
	spec := service.BatchSpec{
		Graphs: []string{"drain-a"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	coord, workers := newFleet(t, 2, nil)
	putGen(t, coord, "drain-a", graphs[0].src)
	info, _ := coord.Store().Get("drain-a")
	victim := coord.owner(info.Fingerprint)
	if victim == nil {
		t.Fatal("no owner for drain-a")
	}
	vw := findWorker(t, workers, victim.url)
	v, err := coord.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Drain once the group is out on the victim and not yet finished.
	var ref string
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := coord.Batches().Get(v.ID)
		if i := slices.IndexFunc(cur.Cells, func(c service.BatchCellView) bool {
			return c.JobID != "" && !c.State.Terminal()
		}); i >= 0 {
			ref = cur.Cells[i].JobID
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("batch reached %+v before its group was dispatched", cur)
		}
		time.Sleep(time.Millisecond)
	}
	if !vw.svc.Drain(30 * time.Second) {
		t.Fatal("victim did not finish its running seeds")
	}
	vw.proxy.set(faultKill)

	_, gid, _ := strings.Cut(ref, ":")
	gv, ok := vw.svc.GetGroup(gid)
	if !ok || gv.State.Terminal() || !slices.ContainsFunc(gv.Cells, func(c service.GroupCellView) bool {
		return c.State == service.Queued
	}) {
		t.Fatalf("drained group %s: %+v, want unfinished with queued seeds abandoned", ref, gv)
	}

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total || fin.Failed != 0 {
		t.Fatalf("batch after drain: state %s, done %d, failed %d of %d", fin.State, fin.Done, fin.Failed, fin.Total)
	}
	assertSameOutcomes(t, singleNodeRun(t, graphs, spec), fin)
}

// TestFleetResubmissionServedFromWorkerCaches: resubmitting a batch finds
// every seed in the workers' result caches, so each job group is admitted
// already finished and answers terminal at submit; the coordinator merges
// those answers without polling, identical to the first run.
func TestFleetResubmissionServedFromWorkerCaches(t *testing.T) {
	graphs, spec := detWorkload()
	coord, _ := newFleet(t, 2, nil)
	first := clusterRun(t, coord, graphs, spec)
	v, err := coord.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	again := waitBatch(t, coord, v.ID)
	if again.State != service.BatchDone || again.CacheHits != again.Total {
		t.Fatalf("resubmitted batch: state %s, cache hits %d of %d", again.State, again.CacheHits, again.Total)
	}
	assertSameOutcomes(t, first, again)
}
