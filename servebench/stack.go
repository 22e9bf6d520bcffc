package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// The serving stack below is built with the constructors and default knobs
// of cmd/reprod, so the benchmark measures what reprod serves.
const (
	reprodQueue         = 256
	reprodCache         = 128
	reprodTimeout       = 60 * time.Second
	reprodMaxGraphs     = 256
	reprodMaxCells      = 4096
	reprodSnapshotEvery = 512
	reprodWindow        = 4
	reprodProbe         = 5 * time.Second
	reprodPoll          = 20 * time.Millisecond
	reprodGroupSize     = 16
	workerTimeout       = 15 * time.Second
)

var discard = slog.New(slog.DiscardHandler)

// server is one HTTP server on a loopback listener.
type server struct {
	srv  *http.Server
	ln   net.Listener
	errc chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		ln:   ln,
		errc: make(chan error, 1),
	}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) url() string { return "http://" + s.ln.Addr().String() }

// close stops accepting, waits for open requests, and waits for the serve
// goroutine to return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.errc
}

// node is one single-node reprod stack: job service, graph store, batch
// engine and HTTP handler.
type node struct {
	svc     *service.Service
	st      *store.Store
	batches *service.Batches
	front   *server
	pool    int
}

// nodeConfig selects what a node differs in: the executor count, a WAL
// directory (empty keeps all state in memory) and an optional keyring.
type nodeConfig struct {
	pool    int
	walDir  string
	keyring *tenant.Keyring
}

func startNode(cfg nodeConfig) (*node, error) {
	scfg := service.Config{
		Workers:        cfg.pool,
		QueueSize:      reprodQueue,
		CacheSize:      reprodCache,
		DefaultTimeout: reprodTimeout,
	}
	if kr := cfg.keyring; kr != nil {
		scfg.TenantLimits = func(id string) service.TenantLimits {
			t, ok := kr.ByID(id)
			if !ok {
				return service.TenantLimits{}
			}
			return service.TenantLimits{Weight: t.Weight, MaxRunning: t.MaxCells, QueueSize: t.QueueSize}
		}
	}
	svc := service.New(scfg)
	storeWAL, batchWAL, spill := "", "", ""
	if cfg.walDir != "" {
		storeWAL = filepath.Join(cfg.walDir, "store")
		batchWAL = filepath.Join(cfg.walDir, "batches")
		spill = filepath.Join(cfg.walDir, "spill")
	}
	st, err := store.Open(store.Config{
		MaxGraphs:     reprodMaxGraphs,
		SpillDir:      spill,
		WALDir:        storeWAL,
		SnapshotEvery: reprodSnapshotEvery,
		Logger:        discard,
	})
	if err != nil {
		svc.Close()
		return nil, err
	}
	batches, err := service.OpenBatches(svc, st, service.BatchConfig{
		MaxCells:      reprodMaxCells,
		WALDir:        batchWAL,
		SnapshotEvery: reprodSnapshotEvery,
		Logger:        discard,
	})
	if err != nil {
		svc.Close()
		st.Close()
		return nil, err
	}
	h := httpapi.NewHandler(svc, st, batches,
		httpapi.WithMaxBodyBytes(httpapi.DefaultMaxBodyBytes), httpapi.WithKeyring(cfg.keyring))
	front, err := serve(h)
	if err != nil {
		svc.Close()
		batches.Close()
		st.Close()
		return nil, err
	}
	return &node{svc: svc, st: st, batches: batches, front: front, pool: svc.Metrics().Workers}, nil
}

// close shuts the node down in reprod's order: listener, job engine, batch
// ledger, store.
func (n *node) close() error {
	n.front.close()
	n.svc.Close()
	errB := n.batches.Close()
	errS := n.st.Close()
	if errB != nil {
		return errB
	}
	return errS
}

// fleet is a coordinator in front of single-node workers, all in-process.
type fleet struct {
	workers []*node
	urls    []string
	coord   *cluster.Coordinator
	dialer  *http.Transport // the coordinator's transport to the workers
	front   *server
	log     *dispatchLog
}

// startFleet builds n one-executor workers and a coordinator with reprod's
// defaults. Workers get fixed base URLs (http://worker-<i>.servebench) that
// the coordinator's own dialer maps to their loopback listeners: the
// coordinator's ring hashes the URL string, so fixed names keep graph
// placement identical from run to run.
func startFleet(n int) (*fleet, error) {
	f := &fleet{log: newDispatchLog()}
	hosts := make(map[string]string, n)
	for i := 0; i < n; i++ {
		w, err := startNode(nodeConfig{pool: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		host := fmt.Sprintf("worker-%d.servebench", i)
		hosts[host+":80"] = w.front.ln.Addr().String()
		f.urls = append(f.urls, "http://"+host)
	}
	f.dialer = fixedHostTransport(hosts)
	coord, err := cluster.New(cluster.Config{
		Workers:       f.urls,
		Window:        reprodWindow,
		ProbeInterval: reprodProbe,
		PollInterval:  reprodPoll,
		MaxGraphs:     reprodMaxGraphs,
		SnapshotEvery: reprodSnapshotEvery,
		MaxCells:      reprodMaxCells,
		Logger:        slog.New(f.log),
		GroupSize:     reprodGroupSize,
		HTTPClient:    &http.Client{Transport: f.dialer, Timeout: workerTimeout},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	front, err := serve(httpapi.NewClusterHandler(coord,
		httpapi.WithMaxBodyBytes(httpapi.DefaultMaxBodyBytes), httpapi.WithKeyring(nil)))
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = front
	return f, nil
}

func (f *fleet) close() error {
	if f.front != nil {
		f.front.close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	// A connection the coordinator dialed but never sent a request on holds
	// a worker's graceful shutdown for five seconds; close them first.
	if f.dialer != nil {
		f.dialer.CloseIdleConnections()
	}
	var first error
	for _, w := range f.workers {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fixedHostTransport is http.DefaultTransport with proxies off and a dialer
// that connects only to the mapped loopback listeners.
func fixedHostTransport(hosts map[string]string) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		target, ok := hosts[addr]
		if !ok {
			return nil, fmt.Errorf("servebench: no in-process listener for %s", addr)
		}
		return d.DialContext(ctx, network, target)
	}
	return tr
}

// countingTransport counts what the harness's clients send and receive:
// requests, response body bytes, non-2xx responses and tenant refusals
// (401 and 429).
type countingTransport struct {
	base      http.RoundTripper
	requests  atomic.Int64
	respBytes atomic.Int64
	non2xx    atomic.Int64
	refused   atomic.Int64
}

func newCountingTransport() *countingTransport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	return &countingTransport{base: tr}
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.non2xx.Add(1)
	}
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusTooManyRequests {
		c.refused.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	return resp, nil
}

// transportCounts is a snapshot of a countingTransport.
type transportCounts struct{ requests, respBytes, non2xx, refused int64 }

func (c *countingTransport) counts() transportCounts {
	return transportCounts{c.requests.Load(), c.respBytes.Load(), c.non2xx.Load(), c.refused.Load()}
}

func (c *countingTransport) close() {
	if tr, ok := c.base.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
