package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// This file is the wire surface of the worker-side job-group path
// (DESIGN.md §6a): POST /v1/jobgroups runs one algorithm over N seeds
// against a single stored-graph lookup, and GET /v1/jobgroups/{id}, with
// ?wait=, long-polls until the group is terminal. Every group answer
// content-negotiates between JSON and RBS1, the framing of the binary batch
// stream (Accept: application/x-repro-jobgroup): one cell frame per seed in
// index order, then the group header as the summary frame. The seeds run as
// member jobs behind the same fair queue as POST /v1/jobs, so a group the
// tenant's queue cannot take answers 503 queue_full. The cluster
// coordinator is the primary client; curl with JSON works the same way.

// JobGroupRequest is the POST /v1/jobgroups body. Groups always run against
// a stored graph (graph_name): the uploading-coordinator use case has the
// graph registered already, and inline graphs would re-pay exactly the
// per-cell wire cost the endpoint exists to amortize.
type JobGroupRequest struct {
	Algo      string `json:"algo"`
	GraphName string `json:"graph_name"`
	// Params is the shared base; its seed field is ignored in favor of
	// Seeds, one run per entry.
	Params *ParamsRequest `json:"params,omitempty"`
	Seeds  []uint64       `json:"seeds"`
	// Traces optionally carries one trace ID per seed (the coordinator's
	// batch-cell child IDs), aligned with Seeds.
	Traces []string `json:"traces,omitempty"`
	// TimeoutMs bounds each seed's run, not the whole group.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// TraceID propagates an existing trace into the group; empty means the
	// service mints one.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceHeaderValue reports the trace ID Client.do should send as the
// TraceHeader header.
func (r JobGroupRequest) TraceHeaderValue() string { return r.TraceID }

// JobGroupResponse is the wire form of a job-group snapshot.
type JobGroupResponse struct {
	ID      string `json:"id"`
	Algo    string `json:"algo"`
	State   string `json:"state"`
	TraceID string `json:"trace_id,omitempty"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	// Cells holds one cell per seed in the batch-cell shape: Index is the
	// seed's position in the request's Seeds, and Graph, Algo, Params and
	// JobID stay empty, since the group and its request carry them. The
	// binary rendering sends them as cell frames, so its summary frame
	// omits them.
	Cells       []BatchCellView `json:"cells,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	// WireBytes reports how many body bytes the response arrived as; the
	// client fills it for the coordinator's bytes-on-wire accounting. Never
	// serialized.
	WireBytes int `json:"-"`
}

// Terminal reports whether the group snapshot is final.
func (g *JobGroupResponse) Terminal() bool {
	return service.State(g.State).Terminal()
}

// registerGroupRoutes mounts the job-group endpoints. Only the single-node
// handler serves them: in coordinator mode groups are an internal dispatch
// unit, not a client surface.
func registerGroupRoutes(mux *http.ServeMux, cfg *handlerConfig, svc *service.Service, st *store.Store) {
	mux.HandleFunc("POST /v1/jobgroups", func(w http.ResponseWriter, r *http.Request) {
		handleSubmitGroup(cfg, svc, st, w, r)
	})
	groupTenant := func(id string) (string, bool) {
		v, ok := svc.GetGroup(id)
		return v.Tenant, ok
	}
	// ?wait= long-polls as GET /v1/batches/{id} does: the answer comes once
	// the group is terminal, the wait has elapsed or the client has gone.
	mux.HandleFunc("GET /v1/jobgroups/{id}", cfg.guard(groupTenant, service.ErrGroupNotFound, func(w http.ResponseWriter, r *http.Request) {
		wait, release, ok := cfg.longPoll(w, r)
		if !ok {
			return
		}
		defer release()
		v, ok := svc.WaitGroup(r.Context(), r.PathValue("id"), wait)
		if !ok {
			writeError(w, service.ErrGroupNotFound)
			return
		}
		writeGroup(w, r, http.StatusOK, toGroupResponse(v))
	}))
	mux.HandleFunc("DELETE /v1/jobgroups/{id}", cfg.guard(groupTenant, service.ErrGroupNotFound, func(w http.ResponseWriter, r *http.Request) {
		v, err := svc.CancelGroup(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeGroup(w, r, http.StatusOK, toGroupResponse(v))
	}))
}

func handleSubmitGroup(cfg *handlerConfig, svc *service.Service, st *store.Store, w http.ResponseWriter, r *http.Request) {
	t := tenantFrom(r)
	var req JobGroupRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Algo == "" {
		writeError(w, errMissingAlgo)
		return
	}
	if req.GraphName == "" {
		writeError(w, errors.New("missing graph_name: job groups run against stored graphs"))
		return
	}
	g, release, err := st.Acquire(cfg.scopeGraph(t, req.GraphName))
	if err != nil {
		writeError(w, err)
		return
	}
	// As with single jobs, the name stays pinned only for the submission:
	// the group holds its own reference to the immutable graph.
	defer release()

	params, err := req.Params.params()
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := svc.SubmitGroup(service.GroupRequest{
		Algo:    req.Algo,
		Graph:   g,
		Params:  params,
		Seeds:   req.Seeds,
		Traces:  req.Traces,
		Timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		TraceID: traceOf(r, req.TraceID),
		Tenant:  t.ID,
	})
	// A group larger than the tenant's queue bound could never be admitted:
	// the service reports it as a plain error, a 400 here, so the
	// coordinator fails its cells instead of backing off forever.
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(TraceHeader, v.TraceID)
	writeGroup(w, r, http.StatusAccepted, toGroupResponse(v))
}

// writeGroup writes a group response in the representation the request's
// Accept header asks for: JSON by default, or, when it names
// GroupBinaryContentType, an RBS1 body that ends the way a batch stream
// does, one cell frame per seed then the cell-free header as the summary.
func writeGroup(w http.ResponseWriter, r *http.Request, code int, v JobGroupResponse) {
	if !strings.Contains(r.Header.Get("Accept"), GroupBinaryContentType) {
		writeJSON(w, code, v)
		return
	}
	cells := v.Cells
	v.Cells = nil
	summary, err := json.Marshal(v)
	if err != nil {
		writeErrCode(w, http.StatusInternalServerError, "", "internal: response encoding failed")
		return
	}
	body := bytes.NewBufferString(streamMagic)
	for _, c := range cells {
		_ = writeStreamFrame(body, StreamFrameCell, encodeStreamCell(c))
	}
	_ = writeStreamFrame(body, StreamFrameBatch, summary)
	w.Header().Set("Content-Type", GroupBinaryContentType)
	w.WriteHeader(code)
	if _, err := body.WriteTo(w); err != nil {
		log.Printf("httpapi: writing group response: %v", err)
	}
}

func toGroupResponse(v service.GroupView) JobGroupResponse {
	out := JobGroupResponse{
		ID:          v.ID,
		Algo:        v.Algo,
		State:       string(v.State),
		TraceID:     v.TraceID,
		Total:       v.Total,
		Done:        v.Done,
		Cells:       make([]BatchCellView, len(v.Cells)),
		SubmittedAt: v.SubmittedAt,
	}
	if !v.FinishedAt.IsZero() {
		t := v.FinishedAt
		out.FinishedAt = &t
	}
	for i, c := range v.Cells {
		out.Cells[i] = BatchCellView{
			Index:    i,
			TraceID:  c.TraceID,
			State:    string(c.State),
			CacheHit: c.CacheHit,
			Error:    c.Error,
			Result:   toJobResult(c.Result),
		}
	}
	return out
}
