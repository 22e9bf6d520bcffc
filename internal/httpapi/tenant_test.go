package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// newTenantServer builds a keyed single-node server the way cmd/reprod does:
// the keyring gates the HTTP surface and feeds the service's fair-share
// admission limits. keyLines is the key-file body (use tenant.HashKey).
func newTenantServer(t *testing.T, keyLines string, cfg service.Config) (*httptest.Server, *tenant.Keyring) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte(keyLines), 0o600); err != nil {
		t.Fatal(err)
	}
	kr, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TenantLimits = func(id string) service.TenantLimits {
		tn, ok := kr.ByID(id)
		if !ok {
			return service.TenantLimits{}
		}
		return service.TenantLimits{Weight: tn.Weight, MaxRunning: tn.MaxCells, QueueSize: tn.QueueSize}
	}
	svc := service.New(cfg)
	st := store.New(store.Config{})
	batches := service.NewBatches(svc, st, service.BatchConfig{})
	ts := httptest.NewServer(NewHandler(svc, st, batches, WithKeyring(kr)))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, kr
}

// doRaw issues one request with an optional API key and returns the response
// with its body drained into a decoded error envelope (nil for 2xx).
func doRaw(t *testing.T, method, url, key, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(APIKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env map[string]any
	_ = json.Unmarshal(raw, &env)
	return resp, env
}

func TestTenantAuthRequired(t *testing.T) {
	keys := "alice " + tenant.HashKey("alice-key") + "\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1})

	resp, env := doRaw(t, http.MethodGet, ts.URL+"/v1/graphs", "", "")
	if resp.StatusCode != http.StatusUnauthorized || env["code"] != CodeUnauthorized {
		t.Fatalf("no key: status %d, envelope %v", resp.StatusCode, env)
	}
	resp, env = doRaw(t, http.MethodGet, ts.URL+"/v1/graphs", "wrong-key", "")
	if resp.StatusCode != http.StatusUnauthorized || env["code"] != CodeUnauthorized {
		t.Fatalf("bad key: status %d, envelope %v", resp.StatusCode, env)
	}
	resp, _ = doRaw(t, http.MethodGet, ts.URL+"/v1/graphs", "alice-key", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key: status %d", resp.StatusCode)
	}

	// Authorization: Bearer is the alternative spelling.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/graphs", nil)
	req.Header.Set("Authorization", "Bearer alice-key")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("bearer key: status %d", bresp.StatusCode)
	}

	// Liveness stays open for probes.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz without key: status %d", hr.StatusCode)
	}
}

// TestTenantIsolation is the cross-tenant visibility contract: each tenant
// sees a private graph namespace (with unscoped names on the wire) and
// another tenant's batches and jobs answer 404, not 403.
func TestTenantIsolation(t *testing.T) {
	keys := "alice " + tenant.HashKey("alice-key") + "\nbob " + tenant.HashKey("bob-key") + "\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 2})
	ctx := context.Background()
	alice := NewClient(ts.URL, nil).WithAPIKey("alice-key")
	bob := NewClient(ts.URL, nil).WithAPIKey("bob-key")

	info, err := alice.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 20, P: 0.25, Seed: 5, MaxW: 16})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "g" {
		t.Fatalf("upload echoed name %q, want the tenant-visible %q", info.Name, "g")
	}

	// Bob uploads a graph under the SAME name: both live side by side.
	if _, err := bob.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 12, P: 0.4, Seed: 9, MaxW: 8}); err != nil {
		t.Fatalf("same name in another tenant's namespace: %v", err)
	}
	bg, err := bob.GetGraph(ctx, "g")
	if err != nil || bg.Nodes != 12 {
		t.Fatalf("bob's g = %+v, %v (want his 12-node graph)", bg, err)
	}
	ag, err := alice.GetGraph(ctx, "g")
	if err != nil || ag.Nodes != 20 {
		t.Fatalf("alice's g = %+v, %v (want her 20-node graph)", ag, err)
	}
	als, err := alice.ListGraphs(ctx)
	if err != nil || len(als) != 1 || als[0].Name != "g" {
		t.Fatalf("alice's listing %+v, %v", als, err)
	}

	// Alice runs a batch; bob cannot see, cancel, or stream it.
	b, err := alice.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := alice.WaitBatch(ctx, b.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("batch %+v", fin)
	}
	for _, cell := range fin.Cells {
		if cell.Graph != "g" {
			t.Fatalf("cell leaks scoped graph name %q", cell.Graph)
		}
	}
	_, err = bob.GetBatch(ctx, b.ID, 0)
	wantStatus(t, err, http.StatusNotFound)
	_, err = bob.CancelBatch(ctx, b.ID)
	wantStatus(t, err, http.StatusNotFound)
	_, err = bob.StreamBatch(ctx, b.ID, 0, func(BatchCellView) error { return nil })
	wantStatus(t, err, http.StatusNotFound)

	// Same for single jobs.
	jr, err := alice.SubmitJob(ctx, SubmitRequest{Algo: "mwm2", GraphName: "g", Params: &ParamsRequest{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = bob.GetJob(ctx, jr.ID)
	wantStatus(t, err, http.StatusNotFound)
	_, err = bob.CancelJob(ctx, jr.ID)
	wantStatus(t, err, http.StatusNotFound)
	if _, err := alice.GetJob(ctx, jr.ID); err != nil {
		t.Fatalf("owner blocked from own job: %v", err)
	}

	// Bob deleting alice's graph 404s and leaves it intact.
	err = bob.DeleteGraph(ctx, "missing-name")
	wantStatus(t, err, http.StatusNotFound)
	if _, err := alice.GetGraph(ctx, "g"); err != nil {
		t.Fatalf("alice's graph gone: %v", err)
	}
}

// TestTenantRateLimit429 pins the token-bucket surface: mutating requests
// beyond the burst answer 429 with the machine-readable code and a
// Retry-After, while reads stay unmetered.
func TestTenantRateLimit429(t *testing.T) {
	keys := "rl " + tenant.HashKey("rl-key") + " rate=0.001 burst=2\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1})

	body := `{"gen":{"gen":"gnp","n":8,"p":0.5,"seed":1}}`
	for i := 0; i < 2; i++ {
		resp, env := doRaw(t, http.MethodPut, ts.URL+"/v1/graphs/g"+string(rune('a'+i)), "rl-key", body)
		if resp.StatusCode >= 300 {
			t.Fatalf("burst request %d: status %d %v", i, resp.StatusCode, env)
		}
	}
	resp, env := doRaw(t, http.MethodPut, ts.URL+"/v1/graphs/gc", "rl-key", body)
	if resp.StatusCode != http.StatusTooManyRequests || env["code"] != CodeRateLimited {
		t.Fatalf("over burst: status %d, envelope %v", resp.StatusCode, env)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Reads are not metered: polling must keep working while the bucket is
	// empty.
	for i := 0; i < 5; i++ {
		resp, _ := doRaw(t, http.MethodGet, ts.URL+"/v1/graphs", "rl-key", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d rate limited: status %d", i, resp.StatusCode)
		}
	}
}

// TestTenantQueueBackpressure saturates one tenant's private queue bound and
// asserts the 503 is per-tenant: the capped tenant sees queue_full while the
// other keeps submitting.
func TestTenantQueueBackpressure(t *testing.T) {
	keys := "lim " + tenant.HashKey("lim-key") + " queue=1\n" +
		"big " + tenant.HashKey("big-key") + "\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1, QueueSize: 64})
	started, release := registerBlocker(t, "park-tenant-queue")
	ctx := context.Background()
	lim := NewClient(ts.URL, nil).WithAPIKey("lim-key")
	big := NewClient(ts.URL, nil).WithAPIKey("big-key")

	// Park the lone worker with big's job so later submissions stay queued.
	if _, err := big.SubmitJob(ctx, SubmitRequest{Algo: "park-tenant-queue", Gen: &GenRequest{Gen: "gnp", N: 8, P: 0.5, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	<-started

	submit := func(c *Client, seed uint64) error {
		_, err := c.SubmitJob(ctx, SubmitRequest{Algo: "mwm2", Gen: &GenRequest{Gen: "gnp", N: 8, P: 0.5, Seed: seed, MaxW: 4}, Params: &ParamsRequest{Seed: seed}})
		return err
	}
	if err := submit(lim, 1); err != nil {
		t.Fatalf("first queued job within the bound: %v", err)
	}
	err := submit(lim, 2)
	wantStatus(t, err, http.StatusServiceUnavailable)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeQueueFull {
		t.Fatalf("over-bound submit error %v, want code %q", err, CodeQueueFull)
	}
	// The shared server is nowhere near full: the other tenant still admits.
	for seed := uint64(10); seed < 14; seed++ {
		if err := submit(big, seed); err != nil {
			t.Fatalf("uncapped tenant rejected: %v", err)
		}
	}
	release()
}

// TestTenantFairShareUnderSaturation is the acceptance scenario: one worker,
// a big tenant with a deep backlog, a small tenant with one batch — the
// small tenant's batch completes while the big tenant still has most of its
// cells pending, instead of waiting behind the whole backlog.
func TestTenantFairShareUnderSaturation(t *testing.T) {
	keys := "big " + tenant.HashKey("big-key") + "\n" +
		"small " + tenant.HashKey("small-key") + "\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1, QueueSize: 64})
	started, release := registerBlocker(t, "park-fair-share")
	ctx := context.Background()
	big := NewClient(ts.URL, nil).WithAPIKey("big-key")
	small := NewClient(ts.URL, nil).WithAPIKey("small-key")

	// Park the worker so both tenants' batches queue up behind it, then
	// submit big's saturating batch first and small's single cell second.
	if _, err := big.SubmitJob(ctx, SubmitRequest{Algo: "park-fair-share", Gen: &GenRequest{Gen: "gnp", N: 8, P: 0.5, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := big.PutGraphGen(ctx, "bg", GenRequest{Gen: "gnp", N: 600, P: 0.02, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := small.PutGraphGen(ctx, "sg", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 3, MaxW: 8}); err != nil {
		t.Fatal(err)
	}
	bigSeeds := make([]uint64, 8)
	for i := range bigSeeds {
		bigSeeds[i] = uint64(i + 1)
	}
	bb, err := big.SubmitBatch(ctx, BatchRequest{Graphs: []string{"bg"}, Algos: []string{"maxis"}, Seeds: bigSeeds})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := small.SubmitBatch(ctx, BatchRequest{Graphs: []string{"sg"}, Algos: []string{"mwm2"}, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}

	release()
	sfin, err := small.WaitBatch(ctx, sb.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sfin.State != "done" {
		t.Fatalf("small batch %+v", sfin)
	}
	bview, err := big.GetBatch(ctx, bb.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bview.Done >= bview.Total {
		t.Fatalf("small tenant's batch finished only after big's %d-cell backlog — admission is FIFO, not fair-share", bview.Total)
	}
	if _, err := big.WaitBatch(ctx, bb.ID, 120*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWaiterGateDegrades pins the bounded long-poll contract: a tenant at
// its waiter allowance gets an immediate snapshot with Retry-After on
// ?wait= (not an error), and a clean 429 on a new stream.
func TestWaiterGateDegrades(t *testing.T) {
	keys := "w " + tenant.HashKey("w-key") + " waiters=1\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1})
	started, release := registerBlocker(t, "park-waiters")
	defer release()
	ctx := context.Background()
	c := NewClient(ts.URL, nil).WithAPIKey("w-key")

	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 8, P: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"park-waiters"}, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the batch is genuinely mid-flight; ?wait= would park

	// Occupy the single waiter slot with a stream: its 200 header is written
	// only after the slot is acquired, so once Do returns the gate is
	// provably engaged.
	sreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"/stream", nil)
	sreq.Header.Set(APIKeyHeader, "w-key")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("first stream status %d", sresp.StatusCode)
	}

	// ?wait= beyond the allowance degrades to an immediate snapshot with a
	// Retry-After hint, not an error.
	start := time.Now()
	resp, _ := doRaw(t, http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"?wait=10s", "w-key", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded long-poll status %d, want 200 snapshot", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded long-poll carries no Retry-After")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("degraded long-poll still parked for %v", took)
	}

	// A second stream beyond the allowance is an explicit 429.
	s2, env := doRaw(t, http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"/stream", "w-key", "")
	if s2.StatusCode != http.StatusTooManyRequests || env["code"] != CodeRateLimited {
		t.Fatalf("stream over waiter bound: status %d, envelope %v", s2.StatusCode, env)
	}

	release()
	if _, err := c.WaitBatch(ctx, b.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestHungUpWaitersFreeTheirSlot: a client that hangs up on a ?wait=
// long-poll or on a result stream frees its tenant's waiter slot at once,
// not when the wait (60 s here) or the stream's keepalive slice (10 s) runs
// out.
func TestHungUpWaitersFreeTheirSlot(t *testing.T) {
	keys := "w " + tenant.HashKey("w-key") + " waiters=1\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1})
	started, release := registerBlocker(t, "park-hangup")
	ctx := context.Background()
	c := NewClient(ts.URL, nil).WithAPIKey("w-key")
	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 8, P: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"park-hangup"}, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the batch stays running, so every wait on it parks
	batchURL := ts.URL + "/v1/batches/" + b.ID

	// slotHeld reports whether a short long-poll finds the one waiter slot
	// taken: over the allowance it answers at once with Retry-After.
	slotHeld := func() bool {
		resp, _ := doRaw(t, http.MethodGet, batchURL+"?wait=1ms", "w-key", "")
		return resp.Header.Get("Retry-After") != ""
	}
	// park starts a waiter on url and reports whether it took the slot; one
	// that arrives while a probe holds the slot is answered at once instead.
	park := func(url string) (hangUp func(), ok bool) {
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			req, _ := http.NewRequestWithContext(wctx, http.MethodGet, url, nil)
			req.Header.Set(APIKeyHeader, "w-key")
			if resp, err := http.DefaultClient.Do(req); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		hangUp = func() { cancel(); <-done }
		for {
			select {
			case <-done:
				return hangUp, false
			default:
			}
			if slotHeld() {
				return hangUp, true
			}
		}
	}

	for name, path := range map[string]string{"long-poll": "?wait=60s", "stream": "/stream"} {
		t.Run(name, func(t *testing.T) {
			hangUp, ok := park(batchURL + path)
			for tries := 1; !ok; tries++ {
				if tries == 100 {
					t.Fatal("the waiter never took the slot")
				}
				hangUp()
				hangUp, ok = park(batchURL + path)
			}
			hangUp()
			deadline := time.Now().Add(2 * time.Second)
			for slotHeld() {
				if time.Now().After(deadline) {
					t.Fatal("the waiter slot was still held 2 s after its client hung up")
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
	release()
}

// TestTenantPromMetrics checks the per-tenant Prometheus families appear
// with tenant labels once keyed traffic has flowed.
func TestTenantPromMetrics(t *testing.T) {
	keys := "alice " + tenant.HashKey("alice-key") + "\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 2})
	ctx := context.Background()
	alice := NewClient(ts.URL, nil).WithAPIKey("alice-key")
	if _, err := alice.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 16, P: 0.25, Seed: 2, MaxW: 8}); err != nil {
		t.Fatal(err)
	}
	b, err := alice.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.WaitBatch(ctx, b.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	text, err := alice.PromMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`repro_tenant_jobs_submitted_total{tenant="alice"} 2`,
		`repro_tenant_jobs_completed_total{tenant="alice"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}
}
