// Package cluster is the multi-node coordinator that turns a fleet of
// single-node reprod workers into one scale-out batch engine. The
// coordinator keeps the authoritative copy of every named graph in a local
// internal/store, consistent-hashes graphs onto workers by their
// registry.Fingerprint (one owner per graph, uploaded once per worker per
// name, in the compact binary codec), packs cells that differ only in seed
// into job groups of up to Config.GroupSize (amortizing graph lookup,
// submit and result round trips over the whole group — the cluster fast
// path), dispatches each group to the owning worker over
// internal/httpapi.Client with a bounded in-flight window per worker,
// long-polls it to terminal (GET /v1/jobgroups/{id}?wait=, right after the
// submit, so no fixed delay sits on the dispatch path), retries groups on
// worker failure by re-placing onto the next healthy worker along the ring,
// and reports per-cell results into a batch view that is indistinguishable
// from a single-node run.
//
// The batch lifecycle is the single-node engine's: the coordinator is a
// service.Executor behind a service.Batches (see batch.go), which owns
// expansion, validation, graph pins, the batch record, views, waits,
// cancel, retention and aggregation. Coordinator batches are not journaled.
// httpapi.NewClusterHandler serves the coordinator's store and batch engine
// directly (Store, Batches); the coordinator adds only the fleet view, the
// fleet metrics and delete propagation (View, Metrics, DeleteGraph).
//
// Layer (DESIGN.md §2, §6): cluster sits above internal/httpapi (it is a
// client of the worker wire format), internal/service (the batch engine)
// and internal/store; it is served by httpapi.NewClusterHandler and
// mounted by cmd/reprod -workers.
//
// Concurrency and ownership: a Coordinator is safe for concurrent use. Each
// batch runs one goroutine per dispatch group, gated by the owning worker's
// window semaphore; cell state lives in the service.Batches record, and
// worker state is guarded by the worker mutex, which is never held across
// an HTTP round trip. Graphs handed out by the local store are shared and
// strictly read-only, exactly as in the single-node engine.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// ErrNoWorkers is returned by New when the config names no workers.
var ErrNoWorkers = errors.New("cluster: no workers configured")

// Config sizes the coordinator. Zero values select defaults.
type Config struct {
	// Workers lists the base URLs of the reprod workers (required).
	Workers []string
	// Window bounds in-flight job groups per worker (default 4).
	Window int
	// PollInterval (default 20ms) is the least time between two polls of
	// one job group — it paces only the unfinished answers that come back
	// before their long-poll wait, such as one a full waiter gate degraded —
	// and the first back-off after a worker answers queue_full. A group's
	// first long-poll goes out right after its submit.
	PollInterval time.Duration
	// ProbeInterval enables background /healthz probing that revives downed
	// workers (0 = probe only via explicit Probe calls).
	ProbeInterval time.Duration
	// MaxGraphs bounds the coordinator's local graph store (store default).
	MaxGraphs int
	// WALDir, when non-empty, makes the coordinator's graph store durable:
	// registrations are journaled and recovered on restart (batch state is
	// not — clients resubmit, and the workers' caches and their own WALs
	// make that cheap).
	WALDir string
	// SpillDir backs the durable store's graph bytes (defaults to
	// <WALDir>/spill).
	SpillDir string
	// SnapshotEvery compacts the store WAL after this many records.
	SnapshotEvery int
	// MaxCells and MaxBatches bound the batch engine exactly as
	// service.BatchConfig's fields of the same name do.
	MaxCells   int
	MaxBatches int
	// HTTPClient is the worker HTTP client; its Timeout bounds every worker
	// round trip, so a hung worker surfaces as a transport error after that
	// long. Nil selects a client with defaultRequestTimeout.
	HTTPClient *http.Client
	// WorkerAPIKey is sent with every worker request when the fleet runs
	// with API keys (-keys on the workers); empty sends none.
	WorkerAPIKey string
	// Logger receives the coordinator's structured span events (dispatch,
	// retry, re-placement, worker down/revived), each tagged with the batch
	// and cell trace IDs. Nil discards them.
	Logger *slog.Logger
	// GroupSize caps how many same-(graph, algo, params) cells ride in one
	// dispatched job group (default 16).
	GroupSize int
}

// defaultRequestTimeout bounds every worker round trip of the default
// worker client.
const defaultRequestTimeout = 15 * time.Second

// maxGroupWait caps the server-side wait of one job-group long-poll.
const maxGroupWait = 5 * time.Second

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 20 * time.Millisecond
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 16
	}
	return c
}

// worker is the coordinator's view of one reprod instance.
type worker struct {
	id     int
	url    string
	client *httpapi.Client
	// slots is the in-flight window: a dispatched group holds one slot for
	// the whole of its attempt on this worker.
	slots chan struct{}

	mu      sync.Mutex
	healthy bool
	// uploaded maps graph name → fingerprint this coordinator has PUT on the
	// worker, so each graph uploads once per worker; cleared when the worker
	// revives (a restarted worker has an empty store).
	uploaded map[string]string
	// uploading singleflights in-progress uploads per name: concurrent
	// groups sharing a graph wait on the channel instead of re-shipping the
	// same bytes.
	uploading map[string]chan struct{}
	inFlight  int
	// queueDepth counts dispatch attempts waiting for a window slot on this
	// worker — the backlog behind the in-flight window, exposed as a
	// Prometheus gauge so a slow worker's backlog is observable.
	queueDepth int
	dispatched uint64
	failures   uint64
	// lastErr is the most recent failure observed against this worker,
	// surfaced in the /v1/cluster view.
	lastErr string
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// ringReplicas is the number of virtual ring points per worker.
const ringReplicas = 64

// ringPoint is one virtual node on the consistent-hash circle.
type ringPoint struct {
	hash uint64
	w    *worker
}

// Coordinator fronts the worker fleet. Create with New, release with Close.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	st      *store.Store
	workers []*worker
	ring    []ringPoint // sorted by hash
	// groupWait is the ?wait= of every job-group long-poll: half the worker
	// client's Timeout, at most maxGroupWait, so a healthy worker answers
	// well inside the timeout and a hung one still surfaces as a client
	// timeout.
	groupWait time.Duration

	b *service.Batches

	probeStop chan struct{}
	probeDone chan struct{}

	cellsDispatched  atomic.Uint64
	cellRetries      atomic.Uint64
	workerFailures   atomic.Uint64
	groupsDispatched atomic.Uint64
	wireBytes        atomic.Uint64
}

// New builds a coordinator over the configured workers. Workers start out
// healthy; failures observed during dispatch (or probing) mark them down.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: defaultRequestTimeout}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	st, err := store.Open(store.Config{
		MaxGraphs:     cfg.MaxGraphs,
		WALDir:        cfg.WALDir,
		SpillDir:      cfg.SpillDir,
		SnapshotEvery: cfg.SnapshotEvery,
		Logger:        logger,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: graph store: %w", err)
	}
	c := &Coordinator{cfg: cfg, log: logger, st: st, groupWait: maxGroupWait}
	if hc.Timeout > 0 {
		c.groupWait = min(hc.Timeout/2, maxGroupWait)
	}
	c.b = service.NewBatchesWith(dispatcher{c}, st, service.BatchConfig{
		MaxCells: cfg.MaxCells, MaxBatches: cfg.MaxBatches, Logger: logger,
	})
	seen := make(map[string]bool)
	for i, raw := range cfg.Workers {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		// Fail fast on anything that is not an absolute http(s) base URL —
		// notably bare host:port, and leftovers of the pre-cluster -workers
		// flag (which used to be the executor-goroutine count).
		parsed, err := url.Parse(u)
		if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
			return nil, fmt.Errorf("cluster: worker %q is not an absolute http(s) base URL", raw)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", u)
		}
		seen[u] = true
		w := &worker{
			id:        i,
			url:       u,
			client:    httpapi.NewClient(u, hc).WithAPIKey(cfg.WorkerAPIKey),
			slots:     make(chan struct{}, cfg.Window),
			healthy:   true,
			uploaded:  make(map[string]string),
			uploading: make(map[string]chan struct{}),
		}
		c.workers = append(c.workers, w)
		for r := 0; r < ringReplicas; r++ {
			c.ring = append(c.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", u, r)), w: w})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	if cfg.ProbeInterval > 0 {
		c.probeStop = make(chan struct{})
		c.probeDone = make(chan struct{})
		go c.probeLoop()
	}
	return c, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// owner returns the healthy worker owning fp on the ring: the first healthy
// worker clockwise from the fingerprint's hash, nil when every worker is
// down. Distinct virtual points of one worker are skipped so a downed owner
// re-places onto the next distinct worker.
func (c *Coordinator) owner(fp string) *worker {
	h := hash64(fp)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	tried := make(map[int]bool, len(c.workers))
	for i := 0; i < len(c.ring); i++ {
		pt := c.ring[(start+i)%len(c.ring)]
		if tried[pt.w.id] {
			continue
		}
		tried[pt.w.id] = true
		if pt.w.isHealthy() {
			return pt.w
		}
		if len(tried) == len(c.workers) {
			break
		}
	}
	return nil
}

// markDown records an observed worker failure — keeping the error for the
// /v1/cluster view — and takes the worker off the ring until a probe
// revives it.
func (c *Coordinator) markDown(w *worker, err error) {
	c.workerFailures.Add(1)
	w.mu.Lock()
	w.failures++
	w.healthy = false
	w.lastErr = err.Error()
	w.mu.Unlock()
	c.log.Warn("worker down", "event", "worker_down", "worker", w.url, "error", err.Error())
}

// Probe checks /healthz on every worker concurrently (one hung worker must
// not stall the sweep for its whole request timeout), reviving reachable
// downed workers (their upload bookkeeping resets: a restarted worker has an
// empty store) and downing unreachable ones. It returns the number of
// healthy workers.
func (c *Coordinator) Probe() int {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	wg.Add(len(c.workers))
	for i, w := range c.workers {
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = w.client.Health(context.Background())
		}(i, w)
	}
	wg.Wait()
	healthy := 0
	for i, w := range c.workers {
		w.mu.Lock()
		revived, downed := false, false
		switch {
		case errs[i] == nil && !w.healthy:
			w.healthy = true
			w.uploaded = make(map[string]string)
			revived = true
		case errs[i] != nil && w.healthy:
			w.healthy = false
			w.failures++
			w.lastErr = errs[i].Error()
			downed = true
		}
		if w.healthy {
			healthy++
		}
		w.mu.Unlock()
		if revived {
			c.log.Info("worker revived", "event", "worker_revived", "worker", w.url)
		}
		if downed {
			c.log.Warn("worker down", "event", "worker_down", "worker", w.url, "error", errs[i].Error())
		}
	}
	return healthy
}

func (c *Coordinator) probeLoop() {
	defer close(c.probeDone)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// Close refuses new batches, cancels every running one, waits until all are
// terminal (so no dispatch goroutine outlives it), and stops the prober. The
// coordinator must not be used afterwards.
func (c *Coordinator) Close() {
	c.b.CloseAdmission()
	for _, v := range c.b.List() {
		if !v.State.Terminal() {
			_, _ = c.b.Cancel(v.ID)
		}
	}
	c.settle(math.MaxInt64)
	if c.probeStop != nil {
		close(c.probeStop)
		<-c.probeDone
	}
	if err := c.st.Close(); err != nil {
		c.log.Warn("store_close_failed", "err", err)
	}
}

// Store is the coordinator's graph store, which the HTTP layer serves
// directly. Placement is by fingerprint on the ring and the upload to the
// owner happens lazily on first dispatch, so a PUT never blocks on a worker
// round trip.
func (c *Coordinator) Store() *store.Store { return c.st }

// Batches is the coordinator's batch engine, which the HTTP layer serves
// directly; its executor dispatches cells to the fleet. A draining
// coordinator's engine refuses Submit with service.ErrDraining.
func (c *Coordinator) Batches() *service.Batches { return c.b }

// DeleteGraph removes a graph locally (refusing while a batch pins it) and
// best-effort deletes the name from every worker it was uploaded to, so
// worker stores do not accumulate dead names.
func (c *Coordinator) DeleteGraph(name string) error {
	if err := c.st.Delete(name); err != nil {
		return err
	}
	for _, w := range c.workers {
		w.mu.Lock()
		_, had := w.uploaded[name]
		delete(w.uploaded, name)
		healthy := w.healthy
		w.mu.Unlock()
		if had && healthy {
			_ = w.client.DeleteGraph(context.Background(), name)
		}
	}
	return nil
}

// View reports worker health and the current ring placement of every stored
// graph — the GET /v1/cluster document.
func (c *Coordinator) View() httpapi.ClusterView {
	var v httpapi.ClusterView
	for _, w := range c.workers {
		w.mu.Lock()
		v.Workers = append(v.Workers, httpapi.ClusterWorker{
			URL:        w.url,
			Healthy:    w.healthy,
			Graphs:     len(w.uploaded),
			InFlight:   w.inFlight,
			QueueDepth: w.queueDepth,
			Dispatched: w.dispatched,
			Failures:   w.failures,
			LastError:  w.lastErr,
		})
		w.mu.Unlock()
	}
	for _, info := range c.st.List() {
		p := httpapi.ClusterPlacement{Graph: info.Name, Fingerprint: info.Fingerprint}
		if w := c.owner(info.Fingerprint); w != nil {
			p.Worker = w.url
		}
		v.Placements = append(v.Placements, p)
	}
	return v
}

// Metrics merges the coordinator's counters with the summed counters of
// every worker that answers /metrics. Fleet cache-hit rates are recomputed
// from the sums; fleet latency percentiles are per-worker maxima.
func (c *Coordinator) Metrics() httpapi.ClusterMetrics {
	bm := c.b.Metrics()
	m := httpapi.ClusterMetrics{
		WorkersTotal:     len(c.workers),
		BatchesSubmitted: bm.BatchesSubmitted,
		BatchesDone:      bm.BatchesDone,
		BatchesCanceled:  bm.BatchesCanceled,
		BatchCells:       bm.BatchCells,
		CellsDispatched:  c.cellsDispatched.Load(),
		CellRetries:      c.cellRetries.Load(),
		WorkerFailures:   c.workerFailures.Load(),
		GroupsDispatched: c.groupsDispatched.Load(),
		WireBytesTotal:   c.wireBytes.Load(),
	}
	// Fan the worker round trips out: one hung worker must cost one request
	// timeout for the whole scrape, not one per worker. WorkersHealthy
	// counts the workers that actually answered this scrape, so it can
	// never disagree with the Fleet sums beside it.
	fetched := make([]*httpapi.MetricsResponse, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		if !w.isHealthy() {
			continue
		}
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			if wm, err := w.client.Metrics(context.Background()); err == nil {
				fetched[i] = &wm
			}
		}(i, w)
	}
	wg.Wait()
	for _, wm := range fetched {
		if wm == nil {
			continue
		}
		m.WorkersHealthy++
		f := &m.Fleet
		f.Submitted += wm.Submitted
		f.Completed += wm.Completed
		f.Failed += wm.Failed
		f.Canceled += wm.Canceled
		f.CacheHits += wm.CacheHits
		f.CacheMisses += wm.CacheMisses
		f.BatchMembers += wm.BatchMembers
		f.BatchCacheHits += wm.BatchCacheHits
		f.BatchCacheMisses += wm.BatchCacheMisses
		f.CacheSize += wm.CacheSize
		f.Queued += wm.Queued
		f.Running += wm.Running
		f.Workers += wm.Workers
		f.LatencyP50Ms = max(f.LatencyP50Ms, wm.LatencyP50Ms)
		f.LatencyP90Ms = max(f.LatencyP90Ms, wm.LatencyP90Ms)
		f.LatencyP99Ms = max(f.LatencyP99Ms, wm.LatencyP99Ms)
		f.BatchesSubmitted += wm.BatchesSubmitted
		f.BatchesDone += wm.BatchesDone
		f.BatchesCanceled += wm.BatchesCanceled
		f.BatchCells += wm.BatchCells
	}
	if lookups := m.Fleet.CacheHits + m.Fleet.CacheMisses; lookups > 0 {
		m.Fleet.CacheHitRate = float64(m.Fleet.CacheHits) / float64(lookups)
	}
	if lookups := m.Fleet.BatchCacheHits + m.Fleet.BatchCacheMisses; lookups > 0 {
		m.Fleet.BatchCacheHitRate = float64(m.Fleet.BatchCacheHits) / float64(lookups)
	}
	return m
}

// pinnedGraph is one distinct graph pinned for a batch's lifetime, with its
// compact binary encoding (graph.EncodeBinary) rendered at most once across
// all uploads.
type pinnedGraph struct {
	g    *graph.Graph
	fp   string
	once sync.Once
	bin  []byte
	err  error
}

func (p *pinnedGraph) encoded() ([]byte, error) {
	p.once.Do(func() {
		var buf bytes.Buffer
		p.err = graph.EncodeBinary(&buf, p.g)
		p.bin = buf.Bytes()
	})
	return p.bin, p.err
}

// ensureGraph uploads the pinned graph to w under name unless this
// coordinator already did. Concurrent groups sharing the graph
// singleflight: one uploads, the rest wait and re-check — the graph crosses
// the network once per worker. A stale name binding on the worker (left by a
// deleted-and-rebound coordinator name) is deleted and re-put once.
func (c *Coordinator) ensureGraph(ctx context.Context, w *worker, name string, pg *pinnedGraph) error {
	for {
		w.mu.Lock()
		if fp, ok := w.uploaded[name]; ok && fp == pg.fp {
			w.mu.Unlock()
			return nil
		}
		if ch, busy := w.uploading[name]; busy {
			w.mu.Unlock()
			select {
			case <-ch: // the uploader finished (either way); re-check
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ch := make(chan struct{})
		w.uploading[name] = ch
		w.mu.Unlock()

		err := c.uploadGraph(ctx, w, name, pg)
		w.mu.Lock()
		delete(w.uploading, name)
		if err == nil {
			w.uploaded[name] = pg.fp
		}
		w.mu.Unlock()
		close(ch)
		return err
	}
}

// uploadGraph ships the binary graph encoding to w, repairing a stale 409
// binding once. Uploaded body bytes land in the wire-bytes counter.
func (c *Coordinator) uploadGraph(ctx context.Context, w *worker, name string, pg *pinnedGraph) error {
	bin, err := pg.encoded()
	if err != nil {
		return err
	}
	_, n, err := w.client.PutGraphBinary(ctx, name, bin)
	c.wireBytes.Add(uint64(n))
	if err != nil {
		var apiErr *httpapi.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
			_ = w.client.DeleteGraph(ctx, name)
			_, n, err = w.client.PutGraphBinary(ctx, name, bin)
			c.wireBytes.Add(uint64(n))
		}
	}
	return err
}
