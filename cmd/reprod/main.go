// Command reprod serves the repository's distributed-approximation
// algorithms as a long-running HTTP JSON service (the internal/httpapi
// surface) backed by the internal/service job and batch engines and the
// internal/store named graph registry: a bounded worker pool, an in-memory
// job store, an LRU result cache keyed by (graph fingerprint, algorithm,
// params), fingerprint-deduplicated named graphs, and batch sweeps that
// expand a parameter grid over stored graphs.
//
// Endpoints (see internal/httpapi for the full wire format):
//
//	POST   /v1/jobs            submit a job (inline graph, stored graph, or generator spec)
//	GET    /v1/jobs/{id}       poll a job
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	PUT    /v1/graphs/{name}   register a named graph (upload or generator spec)
//	GET    /v1/graphs[/{name}] list or inspect named graphs
//	DELETE /v1/graphs/{name}   delete a named graph (409 while a batch pins it)
//	POST   /v1/jobgroups       submit a job group (one algorithm × seeds on a stored graph)
//	GET    /v1/jobgroups/{id}  poll a job group; ?wait=5s long-polls until terminal
//	DELETE /v1/jobgroups/{id}  cancel a job group
//	POST   /v1/batches         submit a batch (stored graphs × parameter grid)
//	GET    /v1/batches/{id}    poll a batch; ?wait=5s long-polls until terminal
//	DELETE /v1/batches/{id}    cancel a batch (fans out to member jobs)
//	GET    /v1/algorithms      list registered algorithms and generators
//	GET    /healthz            liveness
//	GET    /metrics            service + batch counters and latency percentiles
//	                           (JSON by default; Prometheus text exposition with
//	                           Accept: text/plain)
//
// Logs are structured (log/slog); -log selects text or json output. In
// coordinator mode the dispatch path emits span events (group_dispatch,
// group_retry, group_replace, worker_down, worker_revived) tagged with
// batch and cell trace IDs; both modes log batch_submit and batch_done.
// -pprof mounts net/http/pprof under /debug/pprof/ in both modes.
//
// Example:
//
//	reprod -addr :8080 &
//	curl -s -X PUT localhost:8080/v1/graphs/demo -d '{"gen":{"gen":"gnp","n":64,"p":0.1,"seed":1,"maxw":64}}'
//	curl -s localhost:8080/v1/batches -d '{"graphs":["demo"],"algos":["mwm2"],"seeds":[1,2,3]}'
//	curl -s 'localhost:8080/v1/batches/b000001?wait=10s'
//
// Cluster-coordinator mode: -workers http://host1:8080,http://host2:8080
// serves the same /v1/graphs and /v1/batches wire format but shards batch
// cells across the named reprod workers (internal/cluster): graphs are
// consistent-hashed onto workers by fingerprint and uploaded once each in
// the compact binary codec, same-parameter cells ride together as job
// groups of -groupsize seeds (one lookup, one submit and one long-poll per
// group), groups retry on worker failure by re-placing onto the next
// healthy worker, and GET /v1/cluster reports fleet health and placement.
// Single-job endpoints are not served in coordinator mode.
//
// Durability: -waldir journals graph bindings and batch progress to
// checksummed write-ahead logs (with -snapshot-every compaction) so that a
// restarted server recovers its named graphs and resumes incomplete batches
// under their original IDs — finished cells are restored from the log, only
// unfinished ones re-execute. See DESIGN.md §8 and the README recovery
// cookbook. Without -waldir all state is in-memory, as before.
//
// Multi-tenant mode: -keys names a file of per-tenant API keys (one
// "<tenant> <sha256-of-key>" line each, with optional weight=/rate=/burst=/
// cells=/queue=/waiters= knobs — see internal/tenant). With -keys every
// request must authenticate (X-API-Key or Authorization: Bearer), mutating
// requests spend the tenant's token bucket, graphs and batches are scoped
// per tenant, and the job queue becomes a weighted fair queue so one
// tenant's backlog cannot starve another's. SIGHUP re-reads the key file
// without a restart (on parse errors the previous keys stay in effect).
// Coordinator deployments pass -worker-key to authenticate against workers
// that run with -keys themselves.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops admitting
// new jobs and batches (submissions 503 with code "draining"), waits up to
// -drain for in-flight work — single-node mode finishes running cells and
// journals them to the WAL, leaving the queued remainder for the restart to
// resume; coordinator mode lets dispatched groups finish on their workers —
// then stops accepting connections and flushes the ledger. With -waldir the
// clean shutdown also writes a final snapshot, so the next start replays a
// minimal log tail; a SIGKILL (or crash) instead replays the journal, which
// recovers everything that was acknowledged before the crash.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// newLogger builds the structured logger behind -log: "text" and "json"
// select the slog handler; anything else is a flag error.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("bad -log %q: want text or json", format)
	}
}

// mountPprof wraps the mode handler (single-node or coordinator — the wrap
// happens after the mode branch, so both get it) with net/http/pprof under
// /debug/pprof/. Profiling stays off the default surface: the handlers expose
// stack traces and timings, so they are gated behind an explicit flag rather
// than mounted unconditionally (run `go tool pprof
// http://host/debug/pprof/profile` against a -pprof server to profile the
// service in situ).
func mountPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprod: ")
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 0, "executor goroutines per node (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "job queue capacity")
	cache := flag.Int("cache", 128, "LRU result-cache entries")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-job timeout")
	maxGraphs := flag.Int("maxgraphs", 256, "named graph store capacity")
	maxBody := flag.Int64("maxbody", httpapi.DefaultMaxBodyBytes, "request body size cap in bytes (raise for large graph uploads)")
	spillDir := flag.String("spilldir", "", "directory for RGD1 graph spill: evicted store entries move to disk and revive via mmap (defaults to <waldir>/spill when -waldir is set)")
	walDir := flag.String("waldir", "", "directory for WAL durability: graph registrations and batch state are journaled there and recovered on restart (empty = in-memory only)")
	snapshotEvery := flag.Int("snapshot-every", 512, "WAL records between snapshot compactions (0 = snapshot only on clean shutdown)")
	load := flag.String("load", "", "comma-separated graph files to preload into the store (.el/.txt edge list, .mtx Matrix Market, .rgd1 disk CSR, .rgb1 binary); each is named after its base filename")
	maxCells := flag.Int("maxcells", 4096, "cell cap per batch")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
	fleet := flag.String("workers", "", "comma-separated reprod worker base URLs; enables cluster-coordinator mode")
	window := flag.Int("window", 4, "coordinator mode: in-flight job groups per worker")
	probe := flag.Duration("probe", 5*time.Second, "coordinator mode: worker health-probe interval (0 disables)")
	poll := flag.Duration("poll", 20*time.Millisecond, "coordinator mode: least time between two long-polls of one job group, and the first queue_full back-off")
	logFormat := flag.String("log", "text", "structured log format: text or json")
	groupSize := flag.Int("groupsize", 16, "coordinator mode: max seeds per dispatched job group")
	keysFile := flag.String("keys", "", "per-tenant API key file; enables multi-tenant mode (auth, rate limits, fair-share admission); SIGHUP reloads it")
	drainFor := flag.Duration("drain", 30*time.Second, "graceful-drain bound on SIGINT/SIGTERM: how long to wait for in-flight work before forcing shutdown")
	workerKey := flag.String("worker-key", "", "coordinator mode: API key sent to workers running with -keys")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		log.Fatal(err)
	}
	slog.SetDefault(logger)

	// Surface flags that silently do nothing in the selected mode: a knob an
	// operator set explicitly must either take effect or be called out.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	inert := map[bool][]string{
		true:  {"pool", "queue", "cache", "timeout", "load"}, // single-node engine knobs
		false: {"window", "probe", "poll", "groupsize"},      // coordinator knobs
	}
	for _, name := range inert[*fleet != ""] {
		if set[name] {
			log.Printf("warning: -%s has no effect in %s mode", name,
				map[bool]string{true: "coordinator", false: "single-node"}[*fleet != ""])
		}
	}

	// Multi-tenant front door: load the key file once at startup and swap in
	// fresh tables on SIGHUP. A nil keyring leaves the API open (single-user
	// mode) with the exact pre-tenant wire format.
	var keyring *tenant.Keyring
	if *keysFile != "" {
		kr, err := tenant.Load(*keysFile)
		if err != nil {
			log.Fatalf("-keys %s: %v", *keysFile, err)
		}
		keyring = kr
		log.Printf("multi-tenant mode: %d tenant keys from %s", kr.Len(), *keysFile)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := kr.Reload(); err != nil {
					log.Printf("SIGHUP key reload failed (previous keys kept): %v", err)
				} else {
					log.Printf("SIGHUP: reloaded %d tenant keys from %s", kr.Len(), *keysFile)
				}
			}
		}()
	}

	var handler http.Handler
	var shutdown func()
	// drain is the mode-specific graceful phase run on SIGINT/SIGTERM before
	// the listener closes: stop admitting, let in-flight work settle (bounded
	// by -drain), and report whether everything finished in time.
	var drain func(time.Duration) bool
	if *fleet != "" {
		storeWAL := ""
		if *walDir != "" {
			storeWAL = filepath.Join(*walDir, "store")
		}
		coord, err := cluster.New(cluster.Config{
			Workers:       strings.Split(*fleet, ","),
			Window:        *window,
			ProbeInterval: *probe,
			PollInterval:  *poll,
			MaxGraphs:     *maxGraphs,
			WALDir:        storeWAL,
			SpillDir:      *spillDir,
			SnapshotEvery: *snapshotEvery,
			MaxCells:      *maxCells,
			Logger:        logger,
			GroupSize:     *groupSize,
			WorkerAPIKey:  *workerKey,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("coordinator mode over %d workers", len(strings.Split(*fleet, ",")))
		handler = httpapi.NewClusterHandler(coord, httpapi.WithMaxBodyBytes(*maxBody), httpapi.WithKeyring(keyring))
		shutdown = coord.Close
		drain = coord.Drain
	} else {
		cfg := service.Config{
			Workers:        *pool,
			QueueSize:      *queue,
			CacheSize:      *cache,
			DefaultTimeout: *timeout,
		}
		if keyring != nil {
			kr := keyring
			cfg.TenantLimits = func(id string) service.TenantLimits {
				t, ok := kr.ByID(id)
				if !ok {
					return service.TenantLimits{}
				}
				return service.TenantLimits{Weight: t.Weight, MaxRunning: t.MaxCells, QueueSize: t.QueueSize}
			}
		}
		svc := service.New(cfg)
		storeWAL, batchWAL, spill := "", "", *spillDir
		if *walDir != "" {
			storeWAL = filepath.Join(*walDir, "store")
			batchWAL = filepath.Join(*walDir, "batches")
			if spill == "" {
				spill = filepath.Join(*walDir, "spill")
			}
		}
		st, err := store.Open(store.Config{
			MaxGraphs:     *maxGraphs,
			SpillDir:      spill,
			WALDir:        storeWAL,
			SnapshotEvery: *snapshotEvery,
			Logger:        logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		batches, err := service.OpenBatches(svc, st, service.BatchConfig{
			MaxCells:      *maxCells,
			WALDir:        batchWAL,
			SnapshotEvery: *snapshotEvery,
			Logger:        logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *load != "" {
			for _, path := range strings.Split(*load, ",") {
				name, info, err := loadGraphFile(st, strings.TrimSpace(path))
				if err != nil {
					log.Fatalf("-load %s: %v", path, err)
				}
				log.Printf("loaded %s as %q: %d nodes, %d edges", path, name, info.Nodes, info.Edges)
			}
		}
		handler = httpapi.NewHandler(svc, st, batches, httpapi.WithMaxBodyBytes(*maxBody), httpapi.WithKeyring(keyring))
		// Batch admission closes first, so no batch registers behind the
		// job engine's drain and then waits, pinned, for cells that never run.
		drain = func(d time.Duration) bool {
			batches.CloseAdmission()
			return svc.Drain(d)
		}
		// Drain order matters: stop the job engine first (queued jobs finish
		// and their terminal notifications reach the ledger), then flush the
		// ledger and write its final snapshot, then the store's.
		shutdown = func() {
			svc.Close()
			if err := batches.Close(); err != nil {
				log.Printf("batch ledger close: %v", err)
			}
			if err := st.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}
	}
	if *pprofOn {
		handler = mountPprof(handler)
		log.Print("pprof handlers enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Restore default signal handling immediately: draining the job queue
	// below can take a while, and a second SIGINT/SIGTERM should kill the
	// process rather than be swallowed.
	stop()

	// Drain before closing the listener: new submissions already 503 with
	// code "draining", but clients can keep polling and streaming results
	// for work that is still settling. Only then stop serving and flush.
	log.Printf("shutting down: draining in-flight work (up to %s)", *drainFor)
	if drain(*drainFor) {
		log.Print("drain complete")
	} else {
		log.Printf("drain timed out after %s; unfinished work resumes from the WAL on restart", *drainFor)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	shutdown()
	log.Print("bye")
}
