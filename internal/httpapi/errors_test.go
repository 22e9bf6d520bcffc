package httpapi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestParseWaitClampsAndRejects pins the ?wait= contract: empty is zero,
// oversized values clamp to the 60s cap instead of holding connections open
// arbitrarily, and negatives or garbage are rejected.
func TestParseWaitClampsAndRejects(t *testing.T) {
	cases := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{in: "", want: 0},
		{in: "5s", want: 5 * time.Second},
		{in: "60s", want: maxWait},
		{in: "61s", want: maxWait},
		{in: "999h", want: maxWait},
		{in: "0s", want: 0},
		{in: "-1s", wantErr: true},
		{in: "banana", wantErr: true},
		{in: "5", wantErr: true}, // bare numbers are not durations
	}
	for _, tc := range cases {
		got, err := parseWait(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseWait(%q): no error", tc.in)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestErrorStatusSurface is the table-driven status-code contract of the
// HTTP API: every documented 400/404/405/409/503 path answers with exactly
// the documented status. The server journals its store and its batches and
// holds one graph resident, so the last rows can lose a spill file and kill
// a journal, as a failed disk would, and see the fault answer 503 on every
// route rather than blame the request.
func TestErrorStatusSurface(t *testing.T) {
	var storeLog, ledgerLog *wal.Log
	dir := t.TempDir()
	svc := service.New(service.Config{Workers: 1})
	st, err := store.Open(store.Config{MaxGraphs: 1, WALDir: filepath.Join(dir, "store"),
		WALHooks: &wal.TestHooks{OnOpen: func(l *wal.Log) { storeLog = l }}})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := service.OpenBatches(svc, st, service.BatchConfig{WALDir: filepath.Join(dir, "batches"),
		WALHooks: &wal.TestHooks{OnOpen: func(l *wal.Log) { ledgerLog = l }}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc, st, batches))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		batches.Close()
		st.Close()
	})
	c := NewClient(ts.URL, nil)
	if _, err := c.PutGraphGen(context.Background(), "err-g", GenRequest{Gen: "gnp", N: 12, P: 0.3, Seed: 1, MaxW: 8}); err != nil {
		t.Fatal(err)
	}

	type row struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}
	cases := []row{
		{"job by unknown stored graph", "POST", "/v1/jobs", `{"algo":"mwm2","graph_name":"missing"}`, 404},
		{"job by known stored graph", "POST", "/v1/jobs", `{"algo":"mwm2","graph_name":"err-g"}`, 202},
		{"unknown job", "GET", "/v1/jobs/j99999999", "", 404},
		{"cancel unknown job", "DELETE", "/v1/jobs/j99999999", "", 404},
		{"unknown graph", "GET", "/v1/graphs/missing", "", 404},
		{"delete unknown graph", "DELETE", "/v1/graphs/missing", "", 404},
		{"unknown batch", "GET", "/v1/batches/b999999", "", 404},
		{"cancel unknown batch", "DELETE", "/v1/batches/b999999", "", 404},
		{"unrouted path", "GET", "/v1/nonsense", "", 404},
		{"wrong method on jobs collection", "DELETE", "/v1/jobs", "", 405},
		{"wrong method on graph resource", "POST", "/v1/graphs/err-g", `{}`, 405},
		{"wrong method on batches collection", "PUT", "/v1/batches", `{}`, 405},
		{"wrong method on metrics", "POST", "/metrics", "", 405},
		{"bad wait duration", "GET", "/v1/batches/b000001?wait=banana", "", 400},
		{"negative wait duration", "GET", "/v1/batches/b000001?wait=-5s", "", 400},
		{"bad batch body", "POST", "/v1/batches", `{{{`, 400},
		{"batch without graphs", "POST", "/v1/batches", `{"algos":["mwm2"]}`, 400},
		{"batch cells and grid mixed", "POST", "/v1/batches",
			`{"graphs":["err-g"],"algos":["mwm2"],"cells":[{"graph":"err-g","algo":"mwm2"}]}`, 400},
		{"batch with unknown stored graph", "POST", "/v1/batches", `{"graphs":["missing"],"algos":["mwm2"]}`, 404},
		{"graph upload without source", "PUT", "/v1/graphs/empty", `{}`, 400},
		{"graph name with bad characters", "PUT", "/v1/graphs/bad%2Fname", `{"gen":{"gen":"gnp","n":4,"p":0.5}}`, 400},
	}
	lostSpill := []row{
		{"batch on a spilled graph whose file is gone", "POST", "/v1/batches", `{"graphs":["lost"],"algos":["mwm2"]}`, 503},
		{"job on a spilled graph whose file is gone", "POST", "/v1/jobs", `{"algo":"mwm2","graph_name":"lost"}`, 503},
	}
	storeKilled := []row{
		{"graph upload with the store journal killed", "PUT", "/v1/graphs/late", `{"gen":{"gen":"gnp","n":4,"p":0.5}}`, 503},
		{"graph delete with the store journal killed", "DELETE", "/v1/graphs/err-g", "", 503},
	}
	ledgerKilled := []row{
		{"batch with the ledger killed", "POST", "/v1/batches", `{"graphs":["err-g"],"algos":["mwm2"]}`, 503},
	}
	run := func(rows []row) {
		for _, tc := range rows {
			t.Run(tc.name, func(t *testing.T) {
				var body *strings.Reader
				if tc.body != "" {
					body = strings.NewReader(tc.body)
				} else {
					body = strings.NewReader("")
				}
				req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
				}
			})
		}
	}
	run(cases)
	// "keep" spills "lost" (the store holds one graph), then lost's spill
	// file disappears.
	for i, name := range []string{"lost", "keep"} {
		if _, err := c.PutGraphGen(context.Background(), name, GenRequest{Gen: "gnp", N: 12, P: 0.3, Seed: uint64(2 + i), MaxW: 8}); err != nil {
			t.Fatal(err)
		}
	}
	lost, _ := st.Get("lost")
	if err := os.Remove(filepath.Join(dir, "store", "spill", lost.Fingerprint+".rgd1")); err != nil {
		t.Fatal(err)
	}
	run(lostSpill)
	storeLog.Kill()
	run(storeKilled)
	ledgerLog.Kill()
	run(ledgerKilled)
}

// TestUploadsOverTheCapsAre400 pins the upload caps on every graph reader
// the API runs: a body that declares or names more nodes or edges than
// registry.MaxGraphNodes/MaxGraphEdges answers 400 naming the cap.
func TestUploadsOverTheCapsAre400(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	n, m := registry.MaxGraphNodes, registry.MaxGraphEdges
	rgb1 := binary.AppendUvarint(binary.AppendUvarint([]byte("RGB1"), uint64(n+1)), 0)
	cases := []struct{ name, method, path, ctype, body string }{
		{"inline job graph", "POST", "/v1/jobs", "application/json", fmt.Sprintf(`{"algo":"maxis","graph":"%d 0\n"}`, n+1)},
		{"inline graph put", "PUT", "/v1/graphs/a", "application/json", fmt.Sprintf(`{"graph":"1 %d\n1\n"}`, m+1)},
		{"binary upload", "PUT", "/v1/graphs/b", GraphBinaryContentType, string(rgb1)},
		{"edge list upload", "PUT", "/v1/graphs/c", GraphEdgeListContentType, fmt.Sprintf("0 %d\n", n)},
		{"matrix market upload", "PUT", "/v1/graphs/d", GraphMatrixMarketContentType,
			fmt.Sprintf("%%%%MatrixMarket matrix coordinate pattern general\n2 2 %d\n", m+1)},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "exceeds cap") {
			t.Errorf("%s: status %d body %s, want 400 naming the cap", tc.name, resp.StatusCode, raw)
		}
	}
}

// TestQueueFullCarriesErrorCode saturates a 1-worker, 1-slot queue and
// asserts the 503 envelope carries the machine-readable queue_full code the
// cluster coordinator keys its retry-on-same-worker decision on.
func TestQueueFullCarriesErrorCode(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1, QueueSize: 1}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	if _, err := c.PutGraphGen(context.Background(), "full-g", GenRequest{Gen: "gnp", N: 1500, P: 0.013, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	var sawCode bool
	for i := 0; i < 32 && !sawCode; i++ {
		_, err := c.SubmitJob(context.Background(), SubmitRequest{Algo: "maxis", GraphName: "full-g", Params: &ParamsRequest{Seed: uint64(i)}})
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			if apiErr.Status != http.StatusServiceUnavailable {
				t.Fatalf("unexpected error %v", err)
			}
			if apiErr.Code != CodeQueueFull {
				t.Fatalf("503 with code %q, want %q", apiErr.Code, CodeQueueFull)
			}
			sawCode = true
		}
	}
	if !sawCode {
		t.Fatal("never saturated the queue")
	}
}

// TestOversizedWaitClampedEndToEnd submits a real batch and long-polls it
// with a wait far beyond the cap: the request must be accepted (clamped
// server-side), not rejected, and must return once the batch is done.
func TestOversizedWaitClampedEndToEnd(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	if _, err := c.PutGraphGen(context.Background(), "wait-g", GenRequest{Gen: "gnp", N: 16, P: 0.25, Seed: 3, MaxW: 8}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(context.Background(), BatchRequest{Graphs: []string{"wait-g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fin, err := c.GetBatch(context.Background(), b.ID, 24*time.Hour) // clamped to 60s server-side
	if err != nil {
		t.Fatal(err)
	}
	if !fin.Terminal() {
		t.Fatalf("batch not terminal after clamped long-poll: %+v", fin)
	}
	if elapsed := time.Since(start); elapsed > maxWait {
		t.Fatalf("long-poll held for %v, beyond the %v cap", elapsed, maxWait)
	}
}

// TestDeleteRunningBatch covers DELETE of a batch that is genuinely
// mid-flight: the cancel succeeds with 200, the batch drains to canceled,
// and a repeat DELETE conflicts with 409.
func TestDeleteRunningBatch(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1, QueueSize: 4}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	if _, err := c.PutGraphGen(context.Background(), "running-g", GenRequest{Gen: "gnp", N: 1200, P: 0.01, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	b, err := c.SubmitBatch(context.Background(), BatchRequest{Graphs: []string{"running-g"}, Algos: []string{"maxis"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.CancelBatch(context.Background(), b.ID)
	if err != nil {
		t.Fatalf("cancel of running batch: %v", err)
	}
	if v.State != "running" && v.State != "canceled" {
		t.Fatalf("post-cancel state %q", v.State)
	}
	fin, err := c.WaitBatch(context.Background(), b.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "canceled" {
		t.Fatalf("final state %q, want canceled", fin.State)
	}
	_, err = c.CancelBatch(context.Background(), b.ID)
	wantStatus(t, err, http.StatusConflict)
}
