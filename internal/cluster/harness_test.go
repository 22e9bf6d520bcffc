package cluster

// This file is the in-process multi-node test harness: a fleet of real
// single-node reprod stacks (service + store + batches behind the real
// httpapi handler), each served by its own httptest.Server and wrapped in a
// fault injector that can kill, hang or slow the worker mid-batch. The
// coordinator under test dials the workers over real HTTP, so every failure
// mode it must survive in production — connection errors, timeouts, 5xx —
// is reproduced faithfully.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// Fault modes of the injector in front of each test worker.
const (
	faultOff int32 = iota
	// faultKill rejects every request with 502, as a crashed worker behind
	// a load balancer would.
	faultKill
	// faultHang never answers: the request parks until the client times out
	// (the handler returns when the client abandons the connection).
	faultHang
	// faultSlow delays every request by the proxy's delay, then serves it
	// unless the worker was killed meanwhile.
	faultSlow
)

// faultProxy wraps a worker handler with a switchable fault mode.
type faultProxy struct {
	innerMu sync.RWMutex
	inner   http.Handler
	mode    atomic.Int32
	delay   time.Duration
	// unblock is closed at test cleanup to free parked hang handlers: the
	// server cannot detect a client disconnect on requests whose body was
	// never read, so hung handlers would otherwise block httptest's Close.
	unblock chan struct{}
}

func (p *faultProxy) set(mode int32) { p.mode.Store(mode) }

// swap replaces the proxied worker stack, keeping the listener (and thus
// the worker's URL) alive across a simulated process restart.
func (p *faultProxy) swap(h http.Handler) {
	p.innerMu.Lock()
	p.inner = h
	p.innerMu.Unlock()
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch p.mode.Load() {
	case faultKill:
		http.Error(w, "fault injector: worker killed", http.StatusBadGateway)
		return
	case faultHang:
		select {
		case <-r.Context().Done():
		case <-p.unblock:
		}
		http.Error(w, "fault injector: worker hung", http.StatusBadGateway)
		return
	case faultSlow:
		select {
		case <-r.Context().Done():
			return
		case <-p.unblock:
			return
		case <-time.After(p.delay):
		}
		if p.mode.Load() == faultKill {
			// Killed while this request waited: a dead worker answers
			// nothing, however long ago the request arrived.
			http.Error(w, "fault injector: worker killed", http.StatusBadGateway)
			return
		}
	}
	p.innerMu.RLock()
	inner := p.inner
	p.innerMu.RUnlock()
	inner.ServeHTTP(w, r)
}

// testWorker is one fleet member: the full single-node stack plus its fault
// injector.
type testWorker struct {
	ts    *httptest.Server
	svc   *service.Service
	st    *store.Store
	proxy *faultProxy
}

// newFleet spins up n in-process workers and a coordinator over them. mut,
// when non-nil, adjusts the coordinator config before construction;
// workerOpts are applied to every worker's HTTP handler (e.g. a body cap).
func newFleet(t *testing.T, n int, mut func(*Config), workerOpts ...httpapi.HandlerOption) (*Coordinator, []*testWorker) {
	t.Helper()
	workers := make([]*testWorker, n)
	urls := make([]string, n)
	for i := range workers {
		svc := service.New(service.Config{Workers: 2, QueueSize: 64})
		st := store.New(store.Config{})
		batches := service.NewBatches(svc, st, service.BatchConfig{})
		proxy := &faultProxy{inner: httpapi.NewHandler(svc, st, batches, workerOpts...), unblock: make(chan struct{})}
		ts := httptest.NewServer(proxy)
		workers[i] = &testWorker{ts: ts, svc: svc, st: st, proxy: proxy}
		urls[i] = ts.URL
		t.Cleanup(func() {
			close(proxy.unblock)
			ts.Close()
			svc.Close()
		})
	}
	cfg := Config{
		Workers:      urls,
		Window:       2,
		HTTPClient:   &http.Client{Timeout: 2 * time.Second},
		PollInterval: time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, workers
}

// putGen registers a generated graph on the coordinator, failing the test on
// error.
func putGen(t *testing.T, c *Coordinator, name string, src store.Source) store.Info {
	t.Helper()
	info, _, err := c.Store().Put(name, src)
	if err != nil {
		t.Fatalf("put %s: %v", name, err)
	}
	return info
}

// waitBatch polls the coordinator until the batch is terminal, failing the
// test after deadline.
func waitBatch(t *testing.T, c *Coordinator, id string) service.BatchView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := c.Batches().Wait(context.Background(), id, time.Second)
		if !ok {
			t.Fatalf("batch %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("batch %s never finished", id)
	return service.BatchView{}
}

// findWorker maps a coordinator worker (by URL) back to its test harness
// entry.
func findWorker(t *testing.T, workers []*testWorker, url string) *testWorker {
	t.Helper()
	for _, w := range workers {
		if w.ts.URL == url {
			return w
		}
	}
	t.Fatalf("no test worker at %s", url)
	return nil
}
