package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/store"
)

func wantStatus(t *testing.T, err error, code int) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != code {
		t.Fatalf("error %v, want API status %d", err, code)
	}
}

// TestGraphLifecycleAndDedup covers PUT/GET/DELETE /v1/graphs: upload,
// generator registration, fingerprint dedup across names, idempotent
// re-put, conflicting re-put, and list.
func TestGraphLifecycleAndDedup(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)

	g := repro.GNP(16, 0.25, 42)
	repro.AssignUniformEdgeWeights(g, 30, 43)
	var buf bytes.Buffer
	if err := repro.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}

	up, err := c.PutGraph(context.Background(), "uploaded", buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if up.Dedup || up.Nodes != 16 || up.Fingerprint == "" {
		t.Fatalf("upload info %+v", up)
	}

	gen, err := c.PutGraphGen(context.Background(), "generated", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 7, MaxW: 32})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Gen != "gnp" || gen.Nodes != 24 {
		t.Fatalf("generated info %+v", gen)
	}

	// Same generator spec under a second name: deduplicated payload.
	alias, err := c.PutGraphGen(context.Background(), "generated-alias", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 7, MaxW: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !alias.Dedup || alias.Fingerprint != gen.Fingerprint || alias.Shared != 2 {
		t.Fatalf("alias info %+v", alias)
	}

	// Idempotent re-put of the same name and content.
	again, err := c.PutGraphGen(context.Background(), "generated", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 7, MaxW: 32})
	if err != nil || !again.Dedup {
		t.Fatalf("re-put: info %+v err %v", again, err)
	}
	// Conflicting content under an existing name: 409.
	_, err = c.PutGraphGen(context.Background(), "generated", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 8, MaxW: 32})
	wantStatus(t, err, http.StatusConflict)

	ls, err := c.ListGraphs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 3 {
		t.Fatalf("listed %d graphs, want 3", len(ls))
	}

	if err := c.DeleteGraph(context.Background(), "generated-alias"); err != nil {
		t.Fatal(err)
	}
	info, err := c.GetGraph(context.Background(), "generated")
	if err != nil || info.Shared != 1 {
		t.Fatalf("survivor after alias delete: %+v err %v", info, err)
	}
	_, err = c.GetGraph(context.Background(), "generated-alias")
	wantStatus(t, err, http.StatusNotFound)
	err = c.DeleteGraph(context.Background(), "generated-alias")
	wantStatus(t, err, http.StatusNotFound)
}

// TestBatchGridLongPollAndAggregate covers POST /v1/batches grid expansion,
// the ?wait= long-poll, per-cell results and the aggregated groups.
func TestBatchGridLongPollAndAggregate(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 4}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)

	if _, err := c.PutGraphGen(context.Background(), "g", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 7, MaxW: 32}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(context.Background(), BatchRequest{
		Graphs: []string{"g"},
		Algos:  []string{"mwm2", "fastmcm"},
		Seeds:  []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != 6 || b.State != "running" && b.State != "done" {
		t.Fatalf("submit response %+v", b)
	}

	fin, err := c.WaitBatch(context.Background(), b.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.Done != 6 {
		t.Fatalf("final batch %+v", fin)
	}
	if len(fin.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(fin.Cells))
	}
	for _, cell := range fin.Cells {
		if cell.State != "done" || cell.Result == nil || cell.Result.Weight <= 0 {
			t.Fatalf("cell %+v", cell)
		}
	}
	if len(fin.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(fin.Groups))
	}
	for _, gr := range fin.Groups {
		if gr.Runs != 3 || gr.Done != 3 || gr.Rounds.N != 3 || gr.Weight.Mean <= 0 {
			t.Fatalf("group %+v", gr)
		}
	}

	// The batch results came from the same registry the single-job path
	// uses: re-running one cell directly must agree exactly.
	g := repro.GNP(24, 0.2, 7)
	repro.AssignUniformNodeWeights(g, 32, 8)
	repro.AssignUniformEdgeWeights(g, 32, 9)
	direct, err := repro.Run("mwm2", g, repro.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var cellWeight int64
	for _, cell := range fin.Cells {
		if cell.Algo == "mwm2" && cell.Params.Seed == 1 {
			cellWeight = cell.Result.Weight
		}
	}
	if cellWeight != direct.Weight {
		t.Fatalf("batch cell weight %d, direct run weight %d", cellWeight, direct.Weight)
	}

	// An identical batch is answered from the result cache.
	b2, err := c.SubmitBatch(context.Background(), BatchRequest{
		Graphs: []string{"g"},
		Algos:  []string{"mwm2", "fastmcm"},
		Seeds:  []uint64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := c.WaitBatch(context.Background(), b2.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.CacheHits != 6 {
		t.Fatalf("resubmitted batch cache hits %d, want 6", fin2.CacheHits)
	}
}

// TestBatchPinBlocksGraphDelete covers ref-counted eviction refusal over
// HTTP: a graph pinned by a running batch returns 409 on DELETE and deletes
// fine once the batch is done.
func TestBatchPinBlocksGraphDelete(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)

	if _, err := c.PutGraphGen(context.Background(), "pinned", GenRequest{Gen: "gnp", N: 800, P: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(context.Background(), BatchRequest{
		Graphs: []string{"pinned"},
		Algos:  []string{"maxis"},
		Seeds:  []uint64{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.DeleteGraph(context.Background(), "pinned")
	wantStatus(t, err, http.StatusConflict)

	if _, err := c.WaitBatch(context.Background(), b.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteGraph(context.Background(), "pinned"); err != nil {
		t.Fatalf("delete after batch: %v", err)
	}
}

// TestClosedStoreAnswers503: a durable store closed under a live handler
// (a worker shutting down) refuses graph writes with 503, which a
// coordinator treats as a worker failure and re-places, not as a 4xx
// rejection that would fail the cells.
func TestClosedStoreAnswers503(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	st, err := store.Open(store.Config{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{})))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)

	gen := GenRequest{Gen: "gnp", N: 12, P: 0.3, Seed: 1}
	if _, err := c.PutGraphGen(context.Background(), "kept", gen); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.PutGraphGen(context.Background(), "late", gen)
	wantStatus(t, err, http.StatusServiceUnavailable)
	err = c.DeleteGraph(context.Background(), "kept")
	wantStatus(t, err, http.StatusServiceUnavailable)
}

// TestDrainingNodeRefusesBatches: a single node in graceful drain — batch
// admission closed, then the job engine drained, the order cmd/reprod
// uses — answers POST /v1/batches with 503 draining, as it answers POST
// /v1/jobs, and the refused batch leaves no pin behind: the graph still
// deletes.
func TestDrainingNodeRefusesBatches(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	st := store.New(store.Config{})
	batches := service.NewBatches(svc, st, service.BatchConfig{})
	ts := httptest.NewServer(NewHandler(svc, st, batches))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "drain-g", GenRequest{Gen: "gnp", N: 12, P: 0.3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	batches.CloseAdmission()
	if !svc.Drain(10 * time.Second) {
		t.Fatal("an idle service did not drain")
	}
	_, jobErr := c.SubmitJob(ctx, SubmitRequest{Algo: "maxis", GraphName: "drain-g"})
	_, batchErr := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"drain-g"}, Algos: []string{"maxis"}})
	for what, err := range map[string]error{"job": jobErr, "batch": batchErr} {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeDraining {
			t.Errorf("%s on a draining node: %v, want 503 %s", what, err, CodeDraining)
		}
	}
	if err := c.DeleteGraph(ctx, "drain-g"); err != nil {
		t.Fatalf("delete after the refused batch: %v", err)
	}
}

// TestBatchCancelFanOutHTTP covers DELETE /v1/batches/{id}: members are
// canceled, the batch terminates as canceled, and a second cancel conflicts.
func TestBatchCancelFanOutHTTP(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1, QueueSize: 4}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)

	if _, err := c.PutGraphGen(context.Background(), "slow", GenRequest{Gen: "gnp", N: 1200, P: 0.01, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	b, err := c.SubmitBatch(context.Background(), BatchRequest{Graphs: []string{"slow"}, Algos: []string{"maxis"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelBatch(context.Background(), b.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitBatch(context.Background(), b.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "canceled" {
		t.Fatalf("state %s, want canceled", fin.State)
	}
	if fin.Canceled == 0 || fin.Done+fin.Failed+fin.Canceled != fin.Total {
		t.Fatalf("member accounting %+v", fin)
	}
	_, err = c.CancelBatch(context.Background(), b.ID)
	wantStatus(t, err, http.StatusConflict)
}

// TestBatchAndGraphBadRequests covers the error surface of the new
// endpoints.
func TestBatchAndGraphBadRequests(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{MaxCells: 4})
	c := NewClient(ts.URL, nil)

	// Graph registration.
	_, err := c.PutGraph(context.Background(), "bad", "this is not a graph")
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.PutGraphGen(context.Background(), "bad", GenRequest{Gen: "hypercube", N: 4})
	wantStatus(t, err, http.StatusBadRequest)
	if err := c.do(context.Background(), http.MethodPut, "/v1/graphs/empty", GraphRequest{}, nil); err == nil {
		t.Fatal("empty graph body accepted")
	}
	_, err = c.GetGraph(context.Background(), "missing")
	wantStatus(t, err, http.StatusNotFound)

	// Batches.
	if _, err := c.PutGraphGen(context.Background(), "g", GenRequest{Gen: "gnp", N: 12, P: 0.3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitBatch(context.Background(), BatchRequest{Algos: []string{"mwm2"}})
	wantStatus(t, err, http.StatusBadRequest) // no graphs
	_, err = c.SubmitBatch(context.Background(), BatchRequest{Graphs: []string{"missing"}, Algos: []string{"mwm2"}})
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.SubmitBatch(context.Background(), BatchRequest{Graphs: []string{"g"}, Algos: []string{"quantum"}})
	wantStatus(t, err, http.StatusBadRequest)
	_, err = c.SubmitBatch(context.Background(), BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2, 3, 4, 5}})
	wantStatus(t, err, http.StatusBadRequest) // over MaxCells
	_, err = c.GetBatch(context.Background(), "b999999", 0)
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.CancelBatch(context.Background(), "b999999")
	wantStatus(t, err, http.StatusNotFound)

	// Bad ?wait= values.
	resp, err := http.Get(ts.URL + "/v1/batches/b000001?wait=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait status %d", resp.StatusCode)
	}
}

// TestJobByStoredGraphName covers POST /v1/jobs with graph_name: the job
// runs against the stored graph and pins it only for the submission.
func TestJobByStoredGraphName(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)

	if _, err := c.PutGraphGen(context.Background(), "g", GenRequest{Gen: "gnp", N: 20, P: 0.25, Seed: 5, MaxW: 16}); err != nil {
		t.Fatal(err)
	}
	jr, err := c.SubmitJob(context.Background(), SubmitRequest{Algo: "mwm2", GraphName: "g", Params: &ParamsRequest{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts, jr.ID)
	if done.State != "done" || done.Result == nil {
		t.Fatalf("job %+v", done)
	}
	_, err = c.SubmitJob(context.Background(), SubmitRequest{Algo: "mwm2", GraphName: "missing"})
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.SubmitJob(context.Background(), SubmitRequest{Algo: "mwm2", GraphName: "g", Graph: "1 0\n1\n"})
	wantStatus(t, err, http.StatusBadRequest)
}

// TestMetricsSplitsBatchTraffic verifies /metrics reports batch cache
// traffic and expansions separately from single jobs.
func TestMetricsSplitsBatchTraffic(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)

	if _, err := c.PutGraphGen(context.Background(), "g", GenRequest{Gen: "gnp", N: 16, P: 0.25, Seed: 2, MaxW: 8}); err != nil {
		t.Fatal(err)
	}
	req := BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2}}
	b1, err := c.SubmitBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitBatch(context.Background(), b1.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	b2, err := c.SubmitBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitBatch(context.Background(), b2.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	var m struct {
		Submitted        uint64 `json:"submitted"`
		CacheHits        uint64 `json:"cache_hits"`
		CacheMisses      uint64 `json:"cache_misses"`
		BatchMembers     uint64 `json:"batch_members"`
		BatchCacheHits   uint64 `json:"batch_cache_hits"`
		BatchCacheMisses uint64 `json:"batch_cache_misses"`
		BatchesSubmitted uint64 `json:"batches_submitted"`
		BatchesDone      uint64 `json:"batches_done"`
		BatchCells       uint64 `json:"batch_cells"`
	}
	if err := c.do(context.Background(), http.MethodGet, "/metrics", nil, &m); err != nil {
		t.Fatal(err)
	}
	if m.BatchMembers != 4 || m.BatchCacheHits != 2 || m.BatchCacheMisses != 2 {
		t.Fatalf("batch member metrics %+v", m)
	}
	if m.CacheHits != 0 || m.CacheMisses != 0 {
		t.Fatalf("single-job cache metrics polluted by batch traffic: %+v", m)
	}
	if m.BatchesSubmitted != 2 || m.BatchesDone != 2 || m.BatchCells != 4 {
		t.Fatalf("batch engine metrics %+v", m)
	}
}
