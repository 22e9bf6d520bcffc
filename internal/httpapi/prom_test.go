package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// fetchMetrics GETs /metrics with the given Accept header and returns body
// and content type.
func fetchMetrics(t *testing.T, url, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics (accept %q): status %d: %s", accept, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestMetricsContentNegotiation is the exposition acceptance test: JSON stays
// the default, Accept: text/plain switches to valid Prometheus text including
// the required engine families, and the engine telemetry reflects a live run.
func TestMetricsContentNegotiation(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})

	// Before any job: default stays JSON and decodes into the wire struct.
	body, ctype := fetchMetrics(t, ts.URL, "")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("default /metrics content type = %q, want JSON", ctype)
	}
	var mr MetricsResponse
	if err := json.Unmarshal([]byte(body), &mr); err != nil {
		t.Fatalf("default /metrics is not the JSON document: %v", err)
	}

	// Run one live job so the engine telemetry has a sample.
	jr, code := postJob(t, ts, `{"algo":"maxis","gen":{"gen":"gnp","n":24,"p":0.2,"seed":1,"maxw":50}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if jr.TraceID == "" {
		t.Fatal("job response carries no trace_id")
	}
	done := pollDone(t, ts, jr.ID)
	if done.State != "done" {
		t.Fatalf("job state %q, error %q", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Trace == nil {
		t.Fatal("live result carries no trace")
	}
	if done.Result.Trace.Rounds <= 0 || done.Result.Trace.Messages <= 0 {
		t.Fatalf("trace has rounds=%d messages=%d, want both > 0",
			done.Result.Trace.Rounds, done.Result.Trace.Messages)
	}

	prom, ctype := fetchMetrics(t, ts.URL, "text/plain")
	if ctype != obs.PromContentType {
		t.Fatalf("prom /metrics content type = %q, want %q", ctype, obs.PromContentType)
	}
	if err := obs.LintProm(prom); err != nil {
		t.Fatalf("prom exposition fails lint: %v\n%s", err, prom)
	}
	for _, family := range []string{
		"# TYPE repro_engine_rounds histogram",
		"# TYPE repro_engine_messages_total counter",
		"# TYPE repro_jobs_completed_total counter",
	} {
		if !strings.Contains(prom, family) {
			t.Errorf("prom exposition missing %q", family)
		}
	}
	if strings.Contains(prom, "repro_engine_messages_total 0\n") {
		t.Error("repro_engine_messages_total still 0 after a live run")
	}
	if !strings.Contains(prom, "repro_engine_rounds_count 1") {
		t.Errorf("repro_engine_rounds_count should be 1 after one live run:\n%s", prom)
	}

	// JSON must be unchanged by the negotiation — re-fetch and compare the
	// decoded structure is still the plain counters document.
	body2, ctype2 := fetchMetrics(t, ts.URL, "application/json")
	if !strings.HasPrefix(ctype2, "application/json") {
		t.Fatalf("Accept: application/json got content type %q", ctype2)
	}
	if err := json.Unmarshal([]byte(body2), &mr); err != nil {
		t.Fatalf("JSON document broke after prom exposition: %v", err)
	}
	if mr.Completed != 1 {
		t.Fatalf("JSON metrics completed = %d, want 1", mr.Completed)
	}
}

// TestSubmitEchoesTraceHeader pins the header contract: a client-supplied
// X-Repro-Trace is adopted and echoed on the submit response.
func TestSubmitEchoesTraceHeader(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"algo":"seq-maxis","gen":{"gen":"gnp","n":8,"p":0.3,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "cafe0123deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "cafe0123deadbeef" {
		t.Fatalf("echoed trace header = %q, want the submitted one", got)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.TraceID != "cafe0123deadbeef" {
		t.Fatalf("job trace_id = %q, want the submitted one", jr.TraceID)
	}
}

// fakeClusterBackend serves canned cluster metrics/views for exposition
// tests; /metrics never reaches the graph and batch routes, so it has no
// store or batch engine behind them.
type fakeClusterBackend struct {
	m ClusterMetrics
	v ClusterView
}

func (f fakeClusterBackend) Store() *store.Store       { return nil }
func (f fakeClusterBackend) Batches() *service.Batches { return nil }
func (f fakeClusterBackend) DeleteGraph(string) error  { return nil }
func (f fakeClusterBackend) View() ClusterView         { return f.v }
func (f fakeClusterBackend) Metrics() ClusterMetrics   { return f.m }

func TestClusterPromExposition(t *testing.T) {
	b := fakeClusterBackend{
		m: ClusterMetrics{
			WorkersTotal:    2,
			WorkersHealthy:  1,
			CellsDispatched: 9,
			CellRetries:     2,
			WorkerFailures:  1,
		},
		v: ClusterView{Workers: []ClusterWorker{
			{URL: "http://w2:8080", Healthy: false, InFlight: 0, Dispatched: 3, Failures: 1},
			{URL: "http://w1:8080", Healthy: true, InFlight: 2, Graphs: 4, Dispatched: 6},
		}},
	}
	ts := httptest.NewServer(NewClusterHandler(b))
	defer ts.Close()

	prom, ctype := fetchMetrics(t, ts.URL, "text/plain")
	if ctype != obs.PromContentType {
		t.Fatalf("content type = %q", ctype)
	}
	if err := obs.LintProm(prom); err != nil {
		t.Fatalf("cluster exposition fails lint: %v\n%s", err, prom)
	}
	for _, line := range []string{
		`repro_cluster_worker_healthy{worker="http://w1:8080"} 1`,
		`repro_cluster_worker_healthy{worker="http://w2:8080"} 0`,
		`repro_cluster_worker_in_flight{worker="http://w1:8080"} 2`,
		`repro_cluster_cell_retries_total 2`,
		`repro_cluster_workers_healthy 1`,
	} {
		if !strings.Contains(prom, line+"\n") {
			t.Errorf("cluster exposition missing %q:\n%s", line, prom)
		}
	}
	// Per-worker samples must come out in sorted URL order regardless of the
	// view's order, so scrapes diff cleanly.
	if strings.Index(prom, `worker="http://w1:8080"`) > strings.Index(prom, `worker="http://w2:8080"`) {
		t.Error("per-worker samples not in sorted URL order")
	}

	// JSON default still serves the ClusterMetrics document.
	body, ctype := fetchMetrics(t, ts.URL, "")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("default cluster /metrics content type = %q", ctype)
	}
	var cm ClusterMetrics
	if err := json.Unmarshal([]byte(body), &cm); err != nil {
		t.Fatal(err)
	}
	if cm.CellsDispatched != 9 {
		t.Fatalf("JSON cluster metrics dispatched = %d, want 9", cm.CellsDispatched)
	}
}

// TestBatchGroupsCarryMessagesAndTrace pins the batch aggregation additions:
// terminal groups summarize messages and sum member traces.
func TestBatchGroupsCarryMessagesAndTrace(t *testing.T) {
	ts, _, st := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	src := store.Source{Gen: "gnp", GenParams: registry.GenParams{N: 20, P: 0.3, Seed: 1, MaxW: 32}}
	if _, _, err := st.Put("g1", src); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json",
		strings.NewReader(`{"graphs":["g1"],"algos":["maxis"],"seeds":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", resp.StatusCode)
	}
	if br.TraceID == "" {
		t.Fatal("batch response carries no trace_id")
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/batches/" + br.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if br.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if br.State != "done" || len(br.Groups) != 1 {
		t.Fatalf("batch state %q groups %d", br.State, len(br.Groups))
	}
	g := br.Groups[0]
	if g.Messages.N != 3 || g.Messages.Mean <= 0 {
		t.Fatalf("group messages summary = %+v, want 3 samples with positive mean", g.Messages)
	}
	if g.Trace == nil || g.Trace.Rounds <= 0 || g.Trace.Messages <= 0 {
		t.Fatalf("group trace = %+v, want summed rounds and messages", g.Trace)
	}
	for _, c := range br.Cells {
		if c.TraceID == "" || !strings.HasPrefix(c.TraceID, br.TraceID+".") {
			t.Fatalf("cell %d trace %q is not a child of batch trace %q", c.Index, c.TraceID, br.TraceID)
		}
	}
}
