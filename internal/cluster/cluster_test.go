package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// gnpSource is a generator-spec graph source shorthand.
func gnpSource(n int, p float64, seed uint64, maxw int64) store.Source {
	return store.Source{Gen: "gnp", GenParams: registry.GenParams{N: n, P: p, Seed: seed, MaxW: maxw}}
}

// namedSource pairs a graph name with its source so reference runs register
// the exact same graphs in the same order.
type namedSource struct {
	name string
	src  store.Source
}

// singleNodeRun executes spec directly on a single-node service.Batches —
// the ground truth every cluster result must match.
func singleNodeRun(t *testing.T, graphs []namedSource, spec service.BatchSpec) service.BatchView {
	t.Helper()
	svc := service.New(service.Config{Workers: 2, QueueSize: 64})
	t.Cleanup(svc.Close)
	st := store.New(store.Config{})
	batches := service.NewBatches(svc, st, service.BatchConfig{})
	for _, g := range graphs {
		if _, _, err := st.Put(g.name, g.src); err != nil {
			t.Fatal(err)
		}
	}
	v, err := batches.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		v, _ = batches.Wait(context.Background(), v.ID, time.Second)
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatal("single-node reference batch never finished")
	return service.BatchView{}
}

// clusterRun registers graphs on the coordinator, submits spec, and waits.
func clusterRun(t *testing.T, c *Coordinator, graphs []namedSource, spec service.BatchSpec) service.BatchView {
	t.Helper()
	for _, g := range graphs {
		putGen(t, c, g.name, g.src)
	}
	v, err := c.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitBatch(t, c, v.ID)
}

// assertSameOutcomes compares the result-bearing parts of two batch views:
// per-cell states and results in index order, and the aggregated groups.
// Job IDs, cache hits and timestamps legitimately differ across topologies.
func assertSameOutcomes(t *testing.T, want, got service.BatchView) {
	t.Helper()
	if got.Total != want.Total || len(got.Cells) != len(want.Cells) {
		t.Fatalf("cell counts: got %d/%d, want %d/%d", got.Total, len(got.Cells), want.Total, len(want.Cells))
	}
	for i := range want.Cells {
		w, g := want.Cells[i], got.Cells[i]
		if g.Graph != w.Graph || g.Algo != w.Algo || !reflect.DeepEqual(g.Params, w.Params) {
			t.Fatalf("cell %d identity: got (%s,%s,%+v), want (%s,%s,%+v)",
				i, g.Graph, g.Algo, g.Params, w.Graph, w.Algo, w.Params)
		}
		if g.State != w.State {
			t.Fatalf("cell %d state %s (err %q), want %s", i, g.State, g.Error, w.State)
		}
		if !reflect.DeepEqual(g.Result, w.Result) {
			t.Fatalf("cell %d result mismatch:\n got %+v\nwant %+v", i, g.Result, w.Result)
		}
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("groups mismatch:\n got %+v\nwant %+v", got.Groups, want.Groups)
	}
}

// detGraphs and detSpec form the shared determinism workload: three graphs,
// two algorithm kinds, three seeds — 18 cells spread across owners.
func detWorkload() ([]namedSource, service.BatchSpec) {
	graphs := []namedSource{
		{"det-a", gnpSource(48, 0.12, 11, 40)},
		{"det-b", gnpSource(64, 0.09, 12, 40)},
		{"det-c", gnpSource(56, 0.10, 13, 40)},
	}
	spec := service.BatchSpec{
		Graphs: []string{"det-a", "det-b", "det-c"},
		Algos:  []string{"mwm2", "maxis"},
		Seeds:  []uint64{1, 2, 3},
	}
	return graphs, spec
}

// TestCrossWorkerDeterminism is the satellite contract: the same BatchSpec
// run on a 1-worker and a 3-worker cluster yields identical per-cell results
// and identical per-group stats.Summary values, both matching a direct
// single-node service run.
func TestCrossWorkerDeterminism(t *testing.T) {
	graphs, spec := detWorkload()
	want := singleNodeRun(t, graphs, spec)
	if want.State != service.BatchDone || want.Done != want.Total {
		t.Fatalf("reference run %+v", want)
	}

	c1, _ := newFleet(t, 1, nil)
	got1 := clusterRun(t, c1, graphs, spec)
	c3, _ := newFleet(t, 3, nil)
	got3 := clusterRun(t, c3, graphs, spec)

	if got1.State != service.BatchDone || got3.State != service.BatchDone {
		t.Fatalf("cluster states: 1-worker %s, 3-worker %s", got1.State, got3.State)
	}
	assertSameOutcomes(t, want, got1)
	assertSameOutcomes(t, want, got3)
}

// TestWorkerKilledMidBatch is the fault-injection acceptance scenario: a
// worker dies mid-batch, its pending cells re-place onto healthy workers,
// the batch completes with every cell done, the aggregates match a
// single-node run exactly, and the coordinator's graph pins are released.
func TestWorkerKilledMidBatch(t *testing.T) {
	graphs := []namedSource{
		{"kill-a", gnpSource(500, 0.015, 21, 64)},
		{"kill-b", gnpSource(520, 0.014, 22, 64)},
		{"kill-c", gnpSource(540, 0.013, 23, 64)},
	}
	spec := service.BatchSpec{
		Graphs: []string{"kill-a", "kill-b", "kill-c"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}

	coord, workers := newFleet(t, 3, nil)
	for _, g := range graphs {
		putGen(t, coord, g.name, g.src)
	}
	// Slow the owner of the first graph BEFORE submitting: without the brake
	// a fast machine can complete every one of the victim's cells before the
	// kill below lands, and a dead worker nobody dials again is never marked
	// unhealthy (the assertion at the bottom would flake). Placement is
	// decided when the graph is put, so the victim is known before any
	// dispatch.
	info, _ := coord.Store().Get("kill-a")
	victim := coord.owner(info.Fingerprint)
	if victim == nil {
		t.Fatal("no owner for kill-a")
	}
	vw := findWorker(t, workers, victim.url)
	vw.proxy.delay = 100 * time.Millisecond
	vw.proxy.set(faultSlow)
	v, err := coord.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the worker owning the first graph while its cells are still
	// being dispatched: once a kill-a cell is out on a worker and not yet
	// terminal, its group must come back from the dead worker or be
	// re-placed.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := coord.Batches().Get(v.ID)
		if slices.ContainsFunc(cur.Cells, func(c service.BatchCellView) bool {
			return c.Graph == "kill-a" && c.JobID != "" && !c.State.Terminal()
		}) {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("batch reached %+v before a kill-a cell was in flight", cur)
		}
		time.Sleep(time.Millisecond)
	}
	vw.proxy.set(faultKill)

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total || fin.Failed != 0 {
		for _, cell := range fin.Cells {
			if cell.State != service.Done {
				t.Logf("cell %d (%s on %s): %s: %s", cell.Index, cell.Algo, cell.Graph, cell.State, cell.Error)
			}
		}
		t.Fatalf("batch after kill: %+v", fin.Groups)
	}
	// Retries re-dispatch cells but must not re-count them: Submitted keeps
	// the single-node invariant Submitted <= Total.
	if fin.Submitted > fin.Total {
		t.Fatalf("submitted %d > total %d after retries", fin.Submitted, fin.Total)
	}

	// The aggregates must match a single-node run bit for bit.
	want := singleNodeRun(t, graphs, spec)
	assertSameOutcomes(t, want, fin)

	// The dead worker is off the ring and the failure was counted.
	view := coord.View()
	downs := 0
	for _, w := range view.Workers {
		if !w.Healthy {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("unhealthy workers %d, want 1 (%+v)", downs, view.Workers)
	}
	if coord.workerFailures.Load() == 0 {
		t.Fatal("no worker failures recorded")
	}

	// Pin-leak regression: after the faulted batch every Acquire must have
	// been released, so deleting the graphs succeeds.
	for _, g := range graphs {
		if err := coord.DeleteGraph(g.name); err != nil {
			t.Fatalf("delete %s after faulted batch: %v", g.name, err)
		}
	}
}

// TestWorkerHangMidBatch covers the second failure mode: a worker that stops
// answering (requests park until the client times out) must be detected via
// the request timeout and its cells re-placed.
func TestWorkerHangMidBatch(t *testing.T) {
	graphs := []namedSource{
		{"hang-a", gnpSource(200, 0.03, 31, 32)},
		{"hang-b", gnpSource(220, 0.03, 32, 32)},
	}
	spec := service.BatchSpec{
		Graphs: []string{"hang-a", "hang-b"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4},
	}
	coord, workers := newFleet(t, 3, func(cfg *Config) {
		cfg.HTTPClient = &http.Client{Timeout: 500 * time.Millisecond}
	})
	for _, g := range graphs {
		putGen(t, coord, g.name, g.src)
	}
	info, _ := coord.Store().Get("hang-a")
	victim := coord.owner(info.Fingerprint)
	findWorker(t, workers, victim.url).proxy.set(faultHang)

	v, err := coord.Batches().Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch against hung worker: %+v", fin)
	}
	want := singleNodeRun(t, graphs, spec)
	assertSameOutcomes(t, want, fin)
}

// TestSlowWorkerNeedsNoRetry: latency below the request timeout is not a
// failure — the batch completes with no worker marked down.
func TestSlowWorkerNeedsNoRetry(t *testing.T) {
	coord, workers := newFleet(t, 2, nil)
	putGen(t, coord, "slow-g", gnpSource(40, 0.15, 41, 32))
	workers[0].proxy.delay = 20 * time.Millisecond
	workers[0].proxy.set(faultSlow)
	workers[1].proxy.delay = 20 * time.Millisecond
	workers[1].proxy.set(faultSlow)

	fin := clusterRun(t, coord, nil, service.BatchSpec{
		Graphs: []string{"slow-g"},
		Algos:  []string{"mwm2"},
		Seeds:  []uint64{1, 2},
	})
	if fin.State != service.BatchDone || fin.Done != 2 {
		t.Fatalf("batch on slow fleet: %+v", fin)
	}
	if n := coord.workerFailures.Load(); n != 0 {
		t.Fatalf("%d worker failures on a merely slow fleet", n)
	}
}

// TestGroupsLongPollToCompletion: a group's first long-poll goes out right
// after its submit and answers once the group is done, so no group waits
// out PollInterval. With the interval at a minute, a batch of eight groups
// must still finish in seconds; groups of two cells against a window of two
// stay clear of the workers' queue bound, whose back-off is PollInterval too.
func TestGroupsLongPollToCompletion(t *testing.T) {
	coord, _ := newFleet(t, 2, func(cfg *Config) {
		cfg.PollInterval = time.Minute
		cfg.GroupSize = 2
	})
	putGen(t, coord, "lp-a", gnpSource(24, 0.2, 51, 32))
	putGen(t, coord, "lp-b", gnpSource(28, 0.2, 52, 32))
	v, err := coord.Batches().Submit(service.BatchSpec{
		Graphs: []string{"lp-a", "lp-b"},
		Algos:  []string{"maxis", "mwm2"},
		Seeds:  []uint64{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fin, ok := coord.Batches().Wait(context.Background(), v.ID, 10*time.Second)
	if !ok || fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("after %v the batch is %s with %d of %d cells done; want done: a group waited out PollInterval",
			time.Since(start).Round(time.Millisecond), fin.State, fin.Done, fin.Total)
	}
	if g := coord.groupsDispatched.Load(); g != 8 {
		t.Fatalf("%d groups dispatched, want 8", g)
	}
}

// TestCancelReleasesPinsAndStops: canceling a cluster batch fans out to
// in-flight worker jobs, marks undispatched cells canceled, and releases
// every graph pin.
func TestCancelReleasesPinsAndStops(t *testing.T) {
	coord, _ := newFleet(t, 2, nil)
	putGen(t, coord, "cancel-g", gnpSource(1200, 0.01, 51, 0))
	seeds := make([]uint64, 10)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	v, err := coord.Batches().Submit(service.BatchSpec{
		Graphs: []string{"cancel-g"},
		Algos:  []string{"maxis"},
		Seeds:  seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Batches().Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchCanceled {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	if fin.Canceled == 0 || fin.Done+fin.Failed+fin.Canceled != fin.Total {
		t.Fatalf("member accounting %+v", fin)
	}
	if _, err := coord.Batches().Cancel(v.ID); err != service.ErrBatchFinished {
		t.Fatalf("second cancel: %v, want ErrBatchFinished", err)
	}
	if err := coord.DeleteGraph("cancel-g"); err != nil {
		t.Fatalf("delete after cancel: %v", err)
	}
}

// TestNewRejectsBadWorkerURLs: the -workers flag used to be the executor
// goroutine count; a leftover invocation (or a scheme-less host) must fail
// at startup, not limp along with an unreachable fleet.
func TestNewRejectsBadWorkerURLs(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{"2"},
		{"localhost:8081"},
		{"http://"},
		{"ftp://host:1"},
		{"http://a:1", "http://a:1"},
		{"http://a:1", " http://a:1/"},
	} {
		if c, err := New(Config{Workers: bad}); err == nil {
			c.Close()
			t.Errorf("New accepted workers %q", bad)
		}
	}
	c, err := New(Config{Workers: []string{" http://a:1/ ", "https://b:2"}})
	if err != nil {
		t.Fatalf("New rejected valid URLs: %v", err)
	}
	c.Close()
}

// TestRingPlacement pins down the consistent-hash contract: stable owners,
// re-placement onto the next distinct healthy worker when the owner goes
// down, and nil when the whole fleet is dark. No HTTP traffic is involved.
func TestRingPlacement(t *testing.T) {
	c, err := New(Config{Workers: []string{"http://a:1", "http://b:1", "http://c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fps := []string{"fp-one", "fp-two", "fp-three", "fp-four", "fp-five", "fp-six"}
	owners := make(map[string]*worker)
	for _, fp := range fps {
		w := c.owner(fp)
		if w == nil {
			t.Fatalf("no owner for %s on a healthy fleet", fp)
		}
		if c.owner(fp) != w {
			t.Fatalf("owner of %s not stable", fp)
		}
		owners[fp] = w
	}
	// Down one worker: its graphs move, others stay put.
	victim := owners[fps[0]]
	victim.mu.Lock()
	victim.healthy = false
	victim.mu.Unlock()
	for _, fp := range fps {
		w := c.owner(fp)
		if w == nil || w == victim {
			t.Fatalf("%s still owned by downed worker", fp)
		}
		if owners[fp] != victim && w != owners[fp] {
			t.Fatalf("%s moved from %s to %s although its owner stayed healthy", fp, owners[fp].url, w.url)
		}
	}
	for _, w := range c.workers {
		w.mu.Lock()
		w.healthy = false
		w.mu.Unlock()
	}
	if w := c.owner(fps[0]); w != nil {
		t.Fatalf("owner %s on a fully dark fleet", w.url)
	}
}

// TestSubmitValidation mirrors the single-node submission error surface.
func TestSubmitValidation(t *testing.T) {
	coord, _ := newFleet(t, 1, func(cfg *Config) { cfg.MaxCells = 4 })
	putGen(t, coord, "v-g", gnpSource(16, 0.2, 61, 16))

	if _, err := coord.Batches().Submit(service.BatchSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	_, err := coord.Batches().Submit(service.BatchSpec{Graphs: []string{"missing"}, Algos: []string{"mwm2"}})
	if !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("missing graph: %v", err)
	}
	if _, err := coord.Batches().Submit(service.BatchSpec{Graphs: []string{"v-g"}, Algos: []string{"quantum"}}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	_, err = coord.Batches().Submit(service.BatchSpec{
		Graphs: []string{"v-g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2, 3, 4, 5},
	})
	if err == nil {
		t.Fatal("over-cap batch accepted")
	}
}

// TestClusterHandlerEndToEnd drives the coordinator through the real
// httpapi.NewClusterHandler wire surface: graph upload, batch, long-poll,
// GET /v1/cluster and the merged /metrics document.
func TestClusterHandlerEndToEnd(t *testing.T) {
	coord, _ := newFleet(t, 3, nil)
	ts := httptest.NewServer(httpapi.NewClusterHandler(coord))
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL, nil)

	if _, err := c.PutGraphGen(context.Background(), "wire-g", httpapi.GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 7, MaxW: 32}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(context.Background(), httpapi.BatchRequest{
		Graphs: []string{"wire-g"},
		Algos:  []string{"mwm2", "fastmcm"},
		Seeds:  []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitBatch(context.Background(), b.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.Done != 6 || len(fin.Groups) != 2 {
		t.Fatalf("batch over the wire: %+v", fin)
	}

	view, err := c.GetCluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Workers) != 3 {
		t.Fatalf("cluster view workers %d, want 3", len(view.Workers))
	}
	healthy := 0
	var dispatched uint64
	for _, w := range view.Workers {
		if w.Healthy {
			healthy++
		}
		dispatched += w.Dispatched
	}
	if healthy != 3 || dispatched == 0 {
		t.Fatalf("cluster view %+v", view.Workers)
	}
	if len(view.Placements) != 1 || view.Placements[0].Graph != "wire-g" || view.Placements[0].Worker == "" {
		t.Fatalf("placements %+v", view.Placements)
	}

	m, err := c.ClusterMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkersTotal != 3 || m.WorkersHealthy != 3 || m.BatchesDone != 1 || m.BatchCells != 6 {
		t.Fatalf("cluster metrics %+v", m)
	}
	if m.Fleet.BatchMembers == 0 && m.Fleet.Submitted == 0 {
		t.Fatalf("fleet counters empty: %+v", m.Fleet)
	}

	// Single-job endpoints are explicitly not served in coordinator mode.
	if _, err := c.SubmitJob(context.Background(), httpapi.SubmitRequest{Algo: "mwm2", GraphName: "wire-g"}); err == nil {
		t.Fatal("coordinator accepted a single job")
	}
	if err := c.DeleteGraph(context.Background(), "wire-g"); err != nil {
		t.Fatal(err)
	}
}
