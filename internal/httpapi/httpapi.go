// Package httpapi is the HTTP JSON transport over the job service, the
// named graph store and the batch-sweep engine. cmd/reprod mounts the
// handler as its entire surface; cmd/sweep and examples/batchsweep drive the
// same handler in-process through the typed Client, so the CLI, the
// examples and the served API share one engine and one wire format.
//
// Layer (DESIGN.md §2): httpapi sits above internal/service and
// internal/store and below the cmd binaries; it owns every wire type
// (requests and responses) so no other layer marshals JSON. Both server
// modes route the graph and batch endpoints straight to a store.Store and a
// service.Batches: NewHandler to its own, NewClusterHandler to the cluster
// coordinator's (cluster.go).
//
// Concurrency and ownership: the handler returned by NewHandler is a plain
// stateless http.Handler — all state lives in the Service, Store and
// Batches it wraps, each of which is safe for concurrent use. Request
// bodies are bounded by maxBodyBytes before decoding.
//
// Endpoints:
//
//	POST   /v1/jobs            submit a job (inline graph, stored graph, or generator spec)
//	GET    /v1/jobs/{id}       poll a job
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/jobgroups       run one algorithm over N seeds against one stored graph
//	GET    /v1/jobgroups/{id}  poll a job group; ?wait=5s long-polls until terminal
//	                           (RBS1 frames with Accept: application/x-repro-jobgroup)
//	DELETE /v1/jobgroups/{id}  cancel a job group
//	PUT    /v1/graphs/{name}   register a named graph (text, generator spec, or
//	                           Content-Type: application/x-repro-graph binary)
//	GET    /v1/graphs          list named graphs
//	GET    /v1/graphs/{name}   inspect a named graph
//	DELETE /v1/graphs/{name}   delete a named graph (409 while pinned)
//	POST   /v1/batches         submit a batch (stored graphs × parameter grid)
//	GET    /v1/batches         list batches
//	GET    /v1/batches/{id}    poll a batch; ?wait=5s long-polls until terminal
//	GET    /v1/batches/{id}/stream  stream cell results incrementally (SSE, or
//	                           binary with Accept: application/x-repro-batchstream;
//	                           resumable via Last-Event-ID)
//	DELETE /v1/batches/{id}    cancel a batch (fans out to member jobs)
//	GET    /v1/algorithms      list registered algorithms and generators
//	GET    /healthz            liveness
//	GET    /metrics            service + batch counters and latency percentiles
//
// Multi-tenant mode (tenant.go): WithKeyring turns on API-key auth, token-
// bucket rate limits, tenant-scoped graph/batch visibility and per-tenant
// admission; without it the surface is byte-identical to the single-tenant
// server.
//
// Errors: every handler answers an error through one table, errorStatus,
// with the envelope {"error": message, "code": code}: 404 for an unknown
// record, 409 for a conflict, 413 body_too_large, 507 for a full store,
// 400 for any other fault of the request, and 503 for every fault on the
// server's side — queue_full, draining, or no code for a closed service or
// store, an unrevivable spilled graph and a crashed, closed or failed
// journal. The middleware adds 401 unauthorized and 429 rate_limited in
// keyed mode.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tenant"
	"repro/internal/wal"
)

// DefaultMaxBodyBytes is the request-body bound (inline graphs included)
// applied when no WithMaxBodyBytes option overrides it.
const DefaultMaxBodyBytes = 64 << 20

// HandlerOption configures NewHandler / NewClusterHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	maxBody int64
	keyring *tenant.Keyring
	waiters *waiterGate
}

func buildHandlerConfig(opts []HandlerOption) *handlerConfig {
	cfg := &handlerConfig{maxBody: DefaultMaxBodyBytes, waiters: newWaiterGate()}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithMaxBodyBytes overrides the request-body size bound (default
// DefaultMaxBodyBytes). Deployments ingesting million-node graphs raise it;
// the streaming upload decoders keep memory proportional to the graph, not
// the bound.
func WithMaxBodyBytes(n int64) HandlerOption {
	return func(c *handlerConfig) {
		if n > 0 {
			c.maxBody = n
		}
	}
}

// WithKeyring turns on multi-tenant mode: every request (except GET
// /healthz) must carry a valid API key, mutating requests spend the tenant's
// token bucket, and graphs/jobs/batches are scoped to the submitting tenant.
// A nil keyring keeps the open single-tenant behavior.
func WithKeyring(kr *tenant.Keyring) HandlerOption {
	return func(c *handlerConfig) {
		c.keyring = kr
	}
}

// limitBody caps every request body once, at the edge, so the decoders
// below can consume r.Body directly — streaming ones included.
func limitBody(h http.Handler, limit int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		h.ServeHTTP(w, r)
	})
}

// maxWait caps the ?wait= long-poll duration.
const maxWait = 60 * time.Second

// TraceHeader is the HTTP header carrying a request's trace ID. Clients may
// set it instead of (or in addition to) the body's trace_id field — the body
// wins when both are present — and every job/batch response echoes the
// effective trace ID back in the same header.
const TraceHeader = "X-Repro-Trace"

// SubmitRequest is the POST /v1/jobs body. Exactly one of Graph (the
// graph.Encode text format), GraphName (a stored graph) and Gen (a
// generator spec) must be set.
type SubmitRequest struct {
	Algo      string         `json:"algo"`
	Graph     string         `json:"graph,omitempty"`
	GraphName string         `json:"graph_name,omitempty"`
	Gen       *GenRequest    `json:"gen,omitempty"`
	Params    *ParamsRequest `json:"params,omitempty"`
	TimeoutMs int64          `json:"timeout_ms,omitempty"`
	// TraceID propagates an existing trace (e.g. a coordinator-assigned cell
	// trace) into the job; empty means the service mints one.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceHeaderValue reports the trace ID Client.do should send as the
// TraceHeader header.
func (r SubmitRequest) TraceHeaderValue() string { return r.TraceID }

// GenRequest mirrors registry.GenParams with the generator name inline:
// {"gen":"gnp","n":64,"p":0.1,"seed":1}.
type GenRequest struct {
	Gen   string  `json:"gen"`
	N     int     `json:"n,omitempty"`
	N2    int     `json:"n2,omitempty"`
	D     int     `json:"d,omitempty"`
	P     float64 `json:"p,omitempty"`
	Rows  int     `json:"rows,omitempty"`
	Cols  int     `json:"cols,omitempty"`
	Spine int     `json:"spine,omitempty"`
	Legs  int     `json:"legs,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	MaxW  int64   `json:"maxw,omitempty"`
}

func (g *GenRequest) genParams() registry.GenParams {
	return registry.GenParams{
		N: g.N, N2: g.N2, D: g.D, P: g.P,
		Rows: g.Rows, Cols: g.Cols,
		Spine: g.Spine, Legs: g.Legs,
		Seed: g.Seed, MaxW: g.MaxW,
	}
}

// ParamsRequest is the wire form of registry.Params.
type ParamsRequest struct {
	Eps         float64 `json:"eps,omitempty"`
	K           int     `json:"k,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	MIS         string  `json:"mis,omitempty"`
	Model       string  `json:"model,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	DetColoring bool    `json:"det_coloring,omitempty"`
}

func (p *ParamsRequest) params() (registry.Params, error) {
	if p == nil {
		return registry.Params{}, nil
	}
	mdl, err := registry.ParseModel(p.Model)
	if err != nil {
		return registry.Params{}, err
	}
	return registry.Params{
		Eps: p.Eps, K: p.K, Delta: p.Delta, MIS: p.MIS,
		Model: mdl, Seed: p.Seed, DeterministicColoring: p.DetColoring,
	}, nil
}

// ParamsWire renders registry params in their wire form; it is the inverse
// of ParamsRequest.params and is shared with the cluster coordinator, which
// re-submits expanded cells to workers over the same wire format.
func ParamsWire(p registry.Params) *ParamsRequest {
	model := ""
	if p.Model != 0 {
		model = p.Model.String()
	}
	return &ParamsRequest{
		Eps: p.Eps, K: p.K, Delta: p.Delta, MIS: p.MIS,
		Model: model, Seed: p.Seed, DetColoring: p.DeterministicColoring,
	}
}

// JobResponse is the wire form of a job snapshot.
type JobResponse struct {
	ID          string     `json:"id"`
	Algo        string     `json:"algo"`
	State       string     `json:"state"`
	TraceID     string     `json:"trace_id,omitempty"`
	CacheHit    bool       `json:"cache_hit"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// JobResult is the wire form of a registry.Result.
type JobResult struct {
	Kind      string          `json:"kind"`
	Size      int             `json:"size"`
	Weight    int64           `json:"weight"`
	Uncovered int             `json:"uncovered,omitempty"`
	InSet     []bool          `json:"in_set,omitempty"`
	Edges     []int           `json:"edges,omitempty"`
	Cost      registry.Cost   `json:"cost"`
	Trace     *obs.RoundTrace `json:"trace,omitempty"`
}

// GraphRequest is the PUT /v1/graphs/{name} body: exactly one of Graph (the
// graph.Encode text format) and Gen must be set.
type GraphRequest struct {
	Graph string      `json:"graph,omitempty"`
	Gen   *GenRequest `json:"gen,omitempty"`
}

// GraphInfo is the wire form of a stored graph's metadata.
type GraphInfo struct {
	Name        string    `json:"name"`
	Fingerprint string    `json:"fingerprint"`
	Nodes       int       `json:"nodes"`
	Edges       int       `json:"edges"`
	Gen         string    `json:"gen,omitempty"`
	Pins        int       `json:"pins"`
	Shared      int       `json:"shared"`
	CreatedAt   time.Time `json:"created_at"`
	// Dedup is true on PUT responses whose content was already stored
	// (under this or another name).
	Dedup bool `json:"dedup,omitempty"`
}

// BatchRequest is the POST /v1/batches body: either explicit cells, or a
// grid of stored graphs × algorithms × parameter axes.
type BatchRequest struct {
	Graphs    []string    `json:"graphs,omitempty"`
	Algos     []string    `json:"algos,omitempty"`
	Eps       []float64   `json:"eps,omitempty"`
	K         []int       `json:"k,omitempty"`
	Delta     []float64   `json:"delta,omitempty"`
	MIS       []string    `json:"mis,omitempty"`
	Seeds     []uint64    `json:"seeds,omitempty"`
	Cells     []BatchCell `json:"cells,omitempty"`
	TimeoutMs int64       `json:"timeout_ms,omitempty"`
	// TraceID propagates an existing trace into the batch; cell i runs under
	// its child trace "<trace>.<i>". Empty means the engine mints one.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceHeaderValue reports the trace ID Client.do should send as the
// TraceHeader header.
func (r BatchRequest) TraceHeaderValue() string { return r.TraceID }

// BatchCell is one explicit (stored graph, algorithm, params) cell.
type BatchCell struct {
	Graph  string         `json:"graph"`
	Algo   string         `json:"algo"`
	Params *ParamsRequest `json:"params,omitempty"`
}

// BatchResponse is the wire form of a batch snapshot. Cells and Groups are
// only present on single-batch GETs; Groups only once the batch is
// terminal.
type BatchResponse struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	TraceID    string          `json:"trace_id,omitempty"`
	Total      int             `json:"total"`
	Submitted  int             `json:"submitted"`
	Done       int             `json:"done"`
	Failed     int             `json:"failed"`
	Canceled   int             `json:"canceled"`
	CacheHits  int             `json:"cache_hits"`
	CreatedAt  time.Time       `json:"created_at"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Cells      []BatchCellView `json:"cells,omitempty"`
	Groups     []BatchGroup    `json:"groups,omitempty"`
}

// Terminal reports whether the batch snapshot is final.
func (b *BatchResponse) Terminal() bool {
	return service.BatchState(b.State).Terminal()
}

// BatchCellView is the wire form of one member run.
type BatchCellView struct {
	Index    int            `json:"index"`
	Graph    string         `json:"graph"`
	Algo     string         `json:"algo"`
	Params   *ParamsRequest `json:"params,omitempty"`
	JobID    string         `json:"job_id,omitempty"`
	TraceID  string         `json:"trace_id,omitempty"`
	State    string         `json:"state"`
	CacheHit bool           `json:"cache_hit,omitempty"`
	Error    string         `json:"error,omitempty"`
	Result   *JobResult     `json:"result,omitempty"`
}

// BatchGroup is the wire form of one aggregated grid cell: the done members
// sharing (graph, algo, params modulo seed), summarized.
type BatchGroup struct {
	Graph    string         `json:"graph"`
	Algo     string         `json:"algo"`
	Params   *ParamsRequest `json:"params,omitempty"`
	Runs     int            `json:"runs"`
	Done     int            `json:"done"`
	Failed   int            `json:"failed"`
	Rounds   stats.Summary  `json:"rounds"`
	Weight   stats.Summary  `json:"weight"`
	Size     stats.Summary  `json:"size"`
	Messages stats.Summary  `json:"messages"`
	// Trace sums the round traces of the group's done members; nil when no
	// member carried one (telemetry disabled).
	Trace *obs.RoundTrace `json:"trace,omitempty"`
}

// MetricsResponse merges the job-service and batch-engine counters into one
// /metrics document. The cluster coordinator decodes it from each worker's
// /metrics and sums the counters into its fleet view.
type MetricsResponse struct {
	service.Metrics
	service.BatchMetrics
}

// NewHandler wires the HTTP API around the job service, the graph store and
// the batch engine. It is a plain http.Handler so tests and in-process
// clients can drive it through httptest.
func NewHandler(svc *service.Service, st *store.Store, batches *service.Batches, opts ...HandlerOption) http.Handler {
	cfg := buildHandlerConfig(opts)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsProm(r) {
			writePromEngine(w, svc.Metrics(), batches.Metrics(), svc.Telemetry(), st, batches)
			return
		}
		writeJSON(w, http.StatusOK, MetricsResponse{svc.Metrics(), batches.Metrics()})
	})
	mux.HandleFunc("GET /v1/algorithms", handleAlgorithms)

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(cfg, svc, st, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := svc.Get(r.PathValue("id"))
		if !ok || !cfg.owns(r, v.Tenant) {
			writeError(w, service.ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, toJobResponse(v))
	})
	jobTenant := func(id string) (string, bool) {
		v, ok := svc.Get(id)
		return v.Tenant, ok
	}
	mux.HandleFunc("DELETE /v1/jobs/{id}", cfg.guard(jobTenant, service.ErrNotFound, func(w http.ResponseWriter, r *http.Request) {
		v, err := svc.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, toJobResponse(v))
	}))

	registerGroupRoutes(mux, cfg, svc, st)
	registerBackendRoutes(mux, cfg, st, batches, st.Delete)
	return cfg.tenantMiddleware(limitBody(mux, cfg.maxBody))
}

// registerBackendRoutes mounts the graph-store and batch routes over a store
// and a batch engine — the one wire surface shared verbatim by the
// single-node handler and the cluster coordinator handler. deleteGraph
// serves DELETE /v1/graphs/{name}: the store's own Delete on a single node,
// the coordinator's, which also drops the name from its workers, in
// coordinator mode.
func registerBackendRoutes(mux *http.ServeMux, cfg *handlerConfig, st *store.Store, batches *service.Batches, deleteGraph func(name string) error) {
	mux.HandleFunc("PUT /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		handlePutGraph(cfg, st, w, r)
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		t := tenantFrom(r)
		infos := st.List()
		out := struct {
			Graphs []GraphInfo `json:"graphs"`
		}{Graphs: make([]GraphInfo, 0, len(infos))}
		for _, info := range infos {
			if cfg.scoped(t) && !strings.HasPrefix(info.Name, t.ID+"/") {
				continue
			}
			out.Graphs = append(out.Graphs, cfg.graphInfo(t, info, false))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		t := tenantFrom(r)
		info, ok := st.Get(cfg.scopeGraph(t, r.PathValue("name")))
		if !ok {
			writeError(w, store.ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, cfg.graphInfo(t, info, false))
	})
	mux.HandleFunc("DELETE /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := deleteGraph(cfg.scopeGraph(tenantFrom(r), r.PathValue("name"))); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		handleSubmitBatch(cfg, batches, w, r)
	})
	mux.HandleFunc("GET /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		t := tenantFrom(r)
		views := batches.List()
		out := struct {
			Batches []BatchResponse `json:"batches"`
		}{Batches: make([]BatchResponse, 0, len(views))}
		for _, v := range views {
			if cfg.owns(r, v.Tenant) {
				out.Batches = append(out.Batches, cfg.batchResponse(t, v))
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	batchTenant := func(id string) (string, bool) {
		v, ok := batches.Get(id)
		return v.Tenant, ok
	}
	mux.HandleFunc("GET /v1/batches/{id}", cfg.guard(batchTenant, service.ErrBatchNotFound, func(w http.ResponseWriter, r *http.Request) {
		wait, release, ok := cfg.longPoll(w, r)
		if !ok {
			return
		}
		defer release()
		v, ok := batches.Wait(r.Context(), r.PathValue("id"), wait)
		if !ok {
			writeError(w, service.ErrBatchNotFound)
			return
		}
		writeJSON(w, http.StatusOK, cfg.batchResponse(tenantFrom(r), v))
	}))
	mux.HandleFunc("GET /v1/batches/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		handleStreamBatch(cfg, batches, w, r)
	})
	mux.HandleFunc("DELETE /v1/batches/{id}", cfg.guard(batchTenant, service.ErrBatchNotFound, func(w http.ResponseWriter, r *http.Request) {
		v, err := batches.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, cfg.batchResponse(tenantFrom(r), v))
	}))
}

// longPoll parses the request's ?wait= and takes a waiter-gate slot for it.
// The gate bounds parked long-polls per tenant: over the bound the wait
// degrades to an immediate snapshot with Retry-After, so a waiter flood
// costs fast polls, not goroutines. ok is false when a malformed wait has
// been answered with a 400; otherwise the caller must call release once
// its wait is over.
func (cfg *handlerConfig) longPoll(w http.ResponseWriter, r *http.Request) (wait time.Duration, release func(), ok bool) {
	wait, err := parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		writeError(w, err)
		return 0, nil, false
	}
	if wait == 0 {
		return 0, func() {}, true
	}
	t := tenantFrom(r)
	if !cfg.waiters.acquire(t) {
		w.Header().Set("Retry-After", "1")
		return 0, func() {}, true
	}
	return wait, func() { cfg.waiters.release(t) }, true
}

// parseWait parses the ?wait= long-poll duration, capped at maxWait.
func parseWait(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad wait %q: must be non-negative", s)
	}
	return min(d, maxWait), nil
}

func handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	type algoJSON struct {
		Name    string   `json:"name"`
		Kind    string   `json:"kind"`
		Summary string   `json:"summary"`
		Params  []string `json:"params"`
	}
	type genJSON struct {
		Name    string   `json:"name"`
		Summary string   `json:"summary"`
		Params  []string `json:"params"`
	}
	var out struct {
		Algorithms []algoJSON `json:"algorithms"`
		Generators []genJSON  `json:"generators"`
	}
	for _, s := range registry.All() {
		out.Algorithms = append(out.Algorithms, algoJSON{s.Name, s.Kind.String(), s.Summary, s.Params})
	}
	for _, s := range registry.Generators() {
		out.Generators = append(out.Generators, genJSON{s.Name, s.Summary, s.Params})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleSubmit(cfg *handlerConfig, svc *service.Service, st *store.Store, w http.ResponseWriter, r *http.Request) {
	t := tenantFrom(r)
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Algo == "" {
		writeError(w, errMissingAlgo)
		return
	}

	name := req.GraphName
	if name != "" {
		name = cfg.scopeGraph(t, name)
	}
	g, release, err := resolveGraph(st, req.Graph, name, req.Gen)
	if err != nil {
		writeError(w, err)
		return
	}
	// A single job may finish long after this handler returns; the stored
	// graph stays pinned only for the duration of the submission. The job
	// holds its own reference to the immutable graph, so eviction of the
	// name cannot invalidate a running job.
	defer release()

	params, err := req.Params.params()
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := svc.Submit(service.Request{
		Algo:    req.Algo,
		Graph:   g,
		Params:  params,
		Timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		TraceID: traceOf(r, req.TraceID),
		Tenant:  t.ID,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(TraceHeader, v.TraceID)
	writeJSON(w, http.StatusAccepted, toJobResponse(v))
}

var errMissingAlgo = errors.New("missing algo (see GET /v1/algorithms)")

// traceOf is a submission's trace ID: the body's, else the TraceHeader's.
func traceOf(r *http.Request, body string) string {
	if body != "" {
		return body
	}
	return r.Header.Get(TraceHeader)
}

// uploadCaps are the registry's untrusted-input caps, which every graph
// upload, streamed or inline, is read under.
var uploadCaps = graph.ReadOptions{MaxNodes: registry.MaxGraphNodes, MaxEdges: registry.MaxGraphEdges}

func handlePutGraph(cfg *handlerConfig, st *store.Store, w http.ResponseWriter, r *http.Request) {
	t := tenantFrom(r)
	// "/" is the store's internal namespace separator (tenant scoping);
	// user-supplied names never contain it, keyed mode or not.
	if strings.Contains(r.PathValue("name"), "/") {
		writeError(w, errors.New("graph name may only contain [A-Za-z0-9._-]"))
		return
	}
	// The non-JSON uploads all stream: the body decodes through a fixed
	// I/O buffer straight into a Builder (size caps enforced against the
	// declared header or during the scan), so a large upload costs the
	// graph, never body + graph. limitBody has already capped raw size.
	var read func(io.Reader, graph.ReadOptions) (*graph.Graph, error)
	ctype := r.Header.Get("Content-Type")
	switch {
	case strings.Contains(ctype, GraphBinaryContentType):
		read = graph.DecodeBinary
	case strings.Contains(ctype, GraphEdgeListContentType):
		read = graph.ReadEdgeList
	case strings.Contains(ctype, GraphMatrixMarketContentType):
		read = graph.ReadMatrixMarket
	}
	var src store.Source
	if read != nil {
		g, err := read(r.Body, uploadCaps)
		if err != nil {
			writeError(w, fmt.Errorf("malformed graph: %w", err))
			return
		}
		src.Graph = g
	} else {
		var req GraphRequest
		if !decodeBody(w, r, &req) {
			return
		}
		var err error
		if src, err = toSource(req.Graph, req.Gen); err != nil {
			writeError(w, err)
			return
		}
	}
	info, dedup, err := st.Put(cfg.scopeGraph(t, r.PathValue("name")), src)
	if err != nil {
		writeError(w, err)
		return
	}
	code := http.StatusCreated
	if dedup {
		code = http.StatusOK
	}
	writeJSON(w, code, cfg.graphInfo(t, info, dedup))
}

func handleSubmitBatch(cfg *handlerConfig, batches *service.Batches, w http.ResponseWriter, r *http.Request) {
	t := tenantFrom(r)
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	graphs := req.Graphs
	if cfg.scoped(t) {
		graphs = make([]string, len(req.Graphs))
		for i, g := range req.Graphs {
			graphs[i] = cfg.scopeGraph(t, g)
		}
	}
	spec := service.BatchSpec{
		Graphs:  graphs,
		Algos:   req.Algos,
		Eps:     req.Eps,
		K:       req.K,
		Delta:   req.Delta,
		MIS:     req.MIS,
		Seeds:   req.Seeds,
		Timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		TraceID: traceOf(r, req.TraceID),
		Tenant:  t.ID,
	}
	for i, c := range req.Cells {
		params, err := c.Params.params()
		if err != nil {
			writeError(w, fmt.Errorf("cell %d: %w", i, err))
			return
		}
		spec.Cells = append(spec.Cells, service.BatchCell{
			Graph: cfg.scopeGraph(t, c.Graph), Algo: c.Algo, Params: params})
	}
	v, err := batches.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(TraceHeader, v.TraceID)
	writeJSON(w, http.StatusAccepted, cfg.batchResponse(t, v))
}

// toSource validates and converts an upload body to a store source.
func toSource(text string, gen *GenRequest) (store.Source, error) {
	switch {
	case text != "" && gen != nil:
		return store.Source{}, errors.New("set exactly one of graph and gen, not both")
	case text != "":
		g, err := graph.Decode(strings.NewReader(text), uploadCaps)
		if err != nil {
			return store.Source{}, fmt.Errorf("malformed graph: %v", err)
		}
		return store.Source{Graph: g}, nil
	case gen != nil:
		return store.Source{Gen: gen.Gen, GenParams: gen.genParams()}, nil
	default:
		return store.Source{}, errors.New("missing graph: set graph (text format) or gen (generator spec)")
	}
}

// resolveGraph produces the input graph of a job submission from exactly one
// of: an inline text graph, a stored graph name, or a generator spec. The
// release function is a no-op except for stored graphs, which stay pinned
// until it runs.
func resolveGraph(st *store.Store, text, name string, gen *GenRequest) (*graph.Graph, func(), error) {
	nop := func() {}
	set := 0
	for _, ok := range []bool{text != "", name != "", gen != nil} {
		if ok {
			set++
		}
	}
	switch {
	case set == 0:
		return nil, nop, errors.New("missing graph: set graph (text format), graph_name (stored) or gen (generator spec)")
	case set > 1:
		return nil, nop, errors.New("set exactly one of graph, graph_name and gen")
	case name != "":
		return st.Acquire(name)
	}
	src, err := toSource(text, gen)
	if err != nil {
		return nil, nop, err
	}
	g, _, err := src.Build()
	return g, nop, err
}

// errorStatus maps an error to its HTTP status and machine-readable code;
// it is the one place the API tests an error against a service, store or
// wal sentinel. Unknown records answer 404 and conflicts 409; a body over
// the cap answers 413 body_too_large, deterministic for the payload, so the
// cluster coordinator fails the cell rather than the worker; a full store
// answers 507. Every fault on the server's side answers 503 — queue_full
// when the tenant's queue is saturated (retryable on this server), draining
// in a graceful drain, and with no code for a closed service or store, a
// spilled graph that cannot be revived and a crashed, closed or failed
// journal — so a coordinator re-places the work instead of failing it.
// Anything else is the request's fault: 400.
func errorStatus(err error) (int, string) {
	is := func(targets ...error) bool {
		return slices.ContainsFunc(targets, func(t error) bool { return errors.Is(err, t) })
	}
	var tooLarge *http.MaxBytesError
	switch {
	case is(service.ErrNotFound, service.ErrGroupNotFound, service.ErrBatchNotFound, store.ErrNotFound):
		return http.StatusNotFound, ""
	case is(service.ErrFinished, service.ErrBatchFinished, store.ErrExists, store.ErrPinned):
		return http.StatusConflict, ""
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, CodeBodyTooLarge
	case is(store.ErrFull):
		return http.StatusInsufficientStorage, ""
	case is(service.ErrQueueFull):
		return http.StatusServiceUnavailable, CodeQueueFull
	case is(service.ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining
	case is(service.ErrClosed, store.ErrClosed, store.ErrRevive, wal.ErrCrashed, wal.ErrClosed, wal.ErrFailed):
		return http.StatusServiceUnavailable, ""
	}
	return http.StatusBadRequest, ""
}

// writeError answers err with the status and code errorStatus maps it to.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	writeErrCode(w, status, code, err.Error())
}

// decodeBody decodes a JSON request body, writing the error response itself
// when it reports false. The body arrives pre-capped by the limitBody
// middleware both handler constructors install; overruns surface as 413, not
// 400, so clients can tell a permanent payload problem from a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func toJobResponse(v service.JobView) JobResponse {
	out := JobResponse{
		ID:          v.ID,
		Algo:        v.Algo,
		State:       string(v.State),
		TraceID:     v.TraceID,
		CacheHit:    v.CacheHit,
		Error:       v.Error,
		SubmittedAt: v.SubmittedAt,
	}
	if !v.StartedAt.IsZero() {
		t := v.StartedAt
		out.StartedAt = &t
	}
	if !v.FinishedAt.IsZero() {
		t := v.FinishedAt
		out.FinishedAt = &t
	}
	out.Result = toJobResult(v.Result)
	return out
}

func toJobResult(res *registry.Result) *JobResult {
	if res == nil {
		return nil
	}
	return &JobResult{
		Kind:      res.Kind.String(),
		Size:      res.Size(),
		Weight:    res.Weight,
		Uncovered: res.Uncovered,
		InSet:     res.InSet,
		Edges:     res.Edges,
		Cost:      res.Cost,
		Trace:     res.Trace,
	}
}

// graphInfo renders a stored graph's metadata for tenant t, its name
// unscoped.
func (cfg *handlerConfig) graphInfo(t tenant.Tenant, info store.Info, dedup bool) GraphInfo {
	return GraphInfo{
		Name:        cfg.unscopeGraph(t, info.Name),
		Fingerprint: info.Fingerprint,
		Nodes:       info.Nodes,
		Edges:       info.Edges,
		Gen:         info.Gen,
		Pins:        info.Pins,
		Shared:      info.Shared,
		CreatedAt:   info.CreatedAt,
		Dedup:       dedup,
	}
}

// batchResponse renders a batch snapshot for tenant t: the counts, plus
// the cells and groups the view carries (List summaries carry neither), with
// the tenant's graph prefix stripped as each is rendered.
func (cfg *handlerConfig) batchResponse(t tenant.Tenant, v service.BatchView) BatchResponse {
	out := BatchResponse{
		ID:        v.ID,
		State:     string(v.State),
		TraceID:   v.TraceID,
		Total:     v.Total,
		Submitted: v.Submitted,
		Done:      v.Done,
		Failed:    v.Failed,
		Canceled:  v.Canceled,
		CacheHits: v.CacheHits,
		CreatedAt: v.CreatedAt,
	}
	if !v.FinishedAt.IsZero() {
		fin := v.FinishedAt
		out.FinishedAt = &fin
	}
	for _, c := range v.Cells {
		out.Cells = append(out.Cells, cfg.cellWire(t, c))
	}
	for _, g := range v.Groups {
		out.Groups = append(out.Groups, BatchGroup{
			Graph:    cfg.unscopeGraph(t, g.Graph),
			Algo:     g.Algo,
			Params:   ParamsWire(g.Params),
			Runs:     g.Runs,
			Done:     g.Done,
			Failed:   g.Failed,
			Rounds:   g.Rounds,
			Weight:   g.Weight,
			Size:     g.Size,
			Messages: g.Messages,
			Trace:    g.Trace,
		})
	}
	return out
}

// cellWire renders one batch cell for tenant t, the same in a batch
// response and in the result stream.
func (cfg *handlerConfig) cellWire(t tenant.Tenant, c service.BatchCellView) BatchCellView {
	return BatchCellView{
		Index:    c.Index,
		Graph:    cfg.unscopeGraph(t, c.Graph),
		Algo:     c.Algo,
		Params:   ParamsWire(c.Params),
		JobID:    c.JobID,
		TraceID:  c.TraceID,
		State:    string(c.State),
		CacheHit: c.CacheHit,
		Error:    c.Error,
		Result:   toJobResult(c.Result),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Pre-encode to a buffer so an encoding failure surfaces as a clean 500
	// instead of a 200 status line followed by a torn body: WriteHeader is
	// only called once the full payload exists. Streaming responses (SSE,
	// binary chunks) bypass writeJSON by design — they commit to the status
	// before the payload is known.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("httpapi: encoding response: %v", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"internal: response encoding failed"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("httpapi: writing response: %v", err)
	}
}

// CodeQueueFull marks a 503 caused by job-queue saturation: the one 5xx a
// client should retry against the same server instead of failing it over.
const CodeQueueFull = "queue_full"

// writeErrCode writes the error envelope: the human-readable message, and
// the machine-readable code beside it when there is one.
func writeErrCode(w http.ResponseWriter, status int, code, msg string) {
	env := map[string]string{"error": msg}
	if code != "" {
		env["code"] = code
	}
	writeJSON(w, status, env)
}
