package httpapi

import (
	"net/http"

	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// This file is the HTTP surface of the cluster coordinator
// (internal/cluster). The coordinator serves the same /v1/graphs and
// /v1/batches wire format as a single-node reprod — clients such as
// cmd/sweep -server cannot tell the difference — plus GET /v1/cluster, the
// health/placement view. The handler lives here (not in internal/cluster) so
// httpapi keeps its contract of owning every wire type; the coordinator
// plugs in through the ClusterBackend interface, which keeps the import
// direction cluster → httpapi (the coordinator dials workers through Client).

// ClusterBackend is the engine behind a coordinator-mode server;
// internal/cluster.Coordinator implements it. The graph and batch routes
// run on its store and batch engine exactly as a single node's do; the
// coordinator adds delete propagation and the cluster-only health/placement
// and merged-metrics views.
type ClusterBackend interface {
	// Store is the coordinator's authoritative graph store.
	Store() *store.Store
	// Batches is the batch engine whose executor dispatches to the fleet.
	Batches() *service.Batches
	// DeleteGraph deletes a graph from the store and from every worker it
	// was uploaded to.
	DeleteGraph(name string) error
	// View reports worker health and graph placement.
	View() ClusterView
	// Metrics merges coordinator counters with the fleet's summed counters.
	Metrics() ClusterMetrics
}

// ClusterWorker is the health/usage snapshot of one worker in the
// GET /v1/cluster response.
type ClusterWorker struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Graphs counts names this coordinator has uploaded to the worker.
	Graphs int `json:"graphs"`
	// InFlight counts cells currently dispatched to the worker.
	InFlight int `json:"in_flight"`
	// QueueDepth counts dispatch attempts waiting behind the worker's
	// in-flight window.
	QueueDepth int `json:"queue_depth"`
	// Dispatched and Failures count cell dispatches and observed worker
	// failures over the coordinator's lifetime; LastError is the most
	// recent failure observed against the worker.
	Dispatched uint64 `json:"dispatched"`
	Failures   uint64 `json:"failures"`
	LastError  string `json:"last_error,omitempty"`
}

// ClusterPlacement maps one stored graph to the worker that owns it on the
// consistent-hash ring ("" when no worker is healthy).
type ClusterPlacement struct {
	Graph       string `json:"graph"`
	Fingerprint string `json:"fingerprint"`
	Worker      string `json:"worker"`
}

// ClusterView is the GET /v1/cluster response.
type ClusterView struct {
	Workers    []ClusterWorker    `json:"workers"`
	Placements []ClusterPlacement `json:"placements"`
}

// ClusterMetrics is the coordinator-mode /metrics document: coordinator
// counters plus the summed counters of every reachable worker. Fleet rates
// are recomputed from the summed counters; fleet latency percentiles are the
// per-worker maxima (summing percentiles is meaningless).
type ClusterMetrics struct {
	WorkersTotal     int    `json:"workers_total"`
	WorkersHealthy   int    `json:"workers_healthy"`
	BatchesSubmitted uint64 `json:"batches_submitted"`
	BatchesDone      uint64 `json:"batches_done"`
	BatchesCanceled  uint64 `json:"batches_canceled"`
	BatchCells       uint64 `json:"batch_cells"`
	CellsDispatched  uint64 `json:"cells_dispatched"`
	CellRetries      uint64 `json:"cell_retries"`
	WorkerFailures   uint64 `json:"worker_failures"`
	// GroupsDispatched counts job-group dispatches, retries included.
	GroupsDispatched uint64 `json:"groups_dispatched"`
	// WireBytesTotal counts body bytes shipped to and from workers over the
	// binary codecs (graph uploads and group poll responses).
	WireBytesTotal uint64 `json:"wire_bytes_total"`
	// Fleet sums the /metrics counters of every worker that answered.
	Fleet MetricsResponse `json:"fleet"`
}

// ToResult rebuilds the registry result a worker serialized — the inverse of
// the JobResult conversion the worker's handler applied. Size is derived, so
// only the stored fields round-trip.
func (r *JobResult) ToResult() (*registry.Result, error) {
	if r == nil {
		return nil, nil
	}
	kind, err := registry.ParseKind(r.Kind)
	if err != nil {
		return nil, err
	}
	return &registry.Result{
		Kind:      kind,
		InSet:     r.InSet,
		Edges:     r.Edges,
		Weight:    r.Weight,
		Uncovered: r.Uncovered,
		Cost:      r.Cost,
		Trace:     r.Trace,
	}, nil
}

// NewClusterHandler wires the coordinator-mode HTTP API around a
// ClusterBackend. Single-job endpoints are not served in coordinator mode
// (submit a one-cell batch instead); everything else matches NewHandler's
// wire format exactly.
func NewClusterHandler(b ClusterBackend, opts ...HandlerOption) http.Handler {
	cfg := buildHandlerConfig(opts)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsProm(r) {
			writePromCluster(w, b.Metrics(), b.View())
			return
		}
		writeJSON(w, http.StatusOK, b.Metrics())
	})
	mux.HandleFunc("GET /v1/algorithms", handleAlgorithms)
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.View())
	})

	unsupported := func(w http.ResponseWriter, r *http.Request) {
		writeErrCode(w, http.StatusNotImplemented, "",
			"single-job endpoints are not served in coordinator mode; submit a one-cell batch")
	}
	mux.HandleFunc("POST /v1/jobs", unsupported)
	mux.HandleFunc("GET /v1/jobs/{id}", unsupported)
	mux.HandleFunc("DELETE /v1/jobs/{id}", unsupported)

	registerBackendRoutes(mux, cfg, b.Store(), b.Batches(), b.DeleteGraph)
	return cfg.tenantMiddleware(limitBody(mux, cfg.maxBody))
}
