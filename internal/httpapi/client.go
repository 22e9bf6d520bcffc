package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Client is a typed client for the httpapi surface. cmd/sweep and
// examples/batchsweep use it against either a remote server or an
// in-process httptest server, so every consumer exercises the same wire
// format the service serves. The zero Client is not usable; construct with
// NewClient. A Client is safe for concurrent use.
//
// Every method takes a context as its first argument and abandons the HTTP
// round trip when it is canceled — the cluster coordinator relies on this to
// stop a canceled batch's worker round trips promptly. Every method also
// runs through one round trip, send, so each reports a non-2xx answer the
// same way: as an *APIError carrying the status and the error code.
type Client struct {
	base   string
	hc     *http.Client
	apiKey string
}

// NewClient returns a client for the API rooted at base (e.g.
// "http://localhost:8080"). hc may be nil for http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// WithAPIKey returns a copy of the client that sends key with every request
// (multi-tenant servers; see WithKeyring). An empty key returns the
// receiver unchanged.
func (c *Client) WithAPIKey(key string) *Client {
	if key == "" {
		return c
	}
	cp := *c
	cp.apiKey = key
	return &cp
}

// APIError is a non-2xx response decoded from the server's error envelope.
// Code carries the machine-readable error code when the server set one
// (e.g. CodeQueueFull on a saturation 503).
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: %d: %s", e.Status, e.Message)
}

// send is the client's one round trip: it builds the request, sets the
// headers given as name, value pairs (skipping empty values) and the API
// key, and sends it. A non-2xx answer comes back as an *APIError decoded
// from the error envelope; on a 2xx the caller owns the response body and
// closes it.
func (c *Client) send(ctx context.Context, method, path string, body io.Reader, header ...string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		if header[i+1] != "" {
			req.Header.Set(header[i], header[i+1])
		}
	}
	if c.apiKey != "" {
		req.Header.Set(APIKeyHeader, c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return nil, &APIError{Status: resp.StatusCode, Code: env.Code, Message: env.Error}
	}
	return resp, nil
}

// do round-trips one JSON request. A nil out discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.sendJSON(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sendJSON is send with in, when not nil, as the JSON body. Requests that
// carry a trace ID (job, group and batch submissions) also send it as the
// TraceHeader header, so access logs and proxies see the trace without
// parsing bodies.
func (c *Client) sendJSON(ctx context.Context, method, path string, in any, header ...string) (*http.Response, error) {
	if in == nil {
		return c.send(ctx, method, path, nil, header...)
	}
	buf, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	header = append(header, "Content-Type", "application/json")
	if t, ok := in.(interface{ TraceHeaderValue() string }); ok {
		header = append(header, TraceHeader, t.TraceHeaderValue())
	}
	return c.send(ctx, method, path, bytes.NewReader(buf), header...)
}

// PutGraph registers a graph in the graph.Encode text format under name.
func (c *Client) PutGraph(ctx context.Context, name, text string) (GraphInfo, error) {
	var out GraphInfo
	err := c.do(ctx, http.MethodPut, "/v1/graphs/"+url.PathEscape(name), GraphRequest{Graph: text}, &out)
	return out, err
}

// PutGraphBinary registers a graph from its graph.EncodeBinary stream under
// name, sending the bytes raw under the binary graph content type. It
// returns how many body bytes went on the wire beside the stored metadata.
func (c *Client) PutGraphBinary(ctx context.Context, name string, data []byte) (GraphInfo, int, error) {
	resp, err := c.send(ctx, http.MethodPut, "/v1/graphs/"+url.PathEscape(name),
		bytes.NewReader(data), "Content-Type", GraphBinaryContentType)
	if err != nil {
		return GraphInfo{}, 0, err
	}
	defer resp.Body.Close()
	var out GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return GraphInfo{}, 0, err
	}
	return out, len(data), nil
}

// PutGraphGen registers a generated graph under name.
func (c *Client) PutGraphGen(ctx context.Context, name string, gen GenRequest) (GraphInfo, error) {
	var out GraphInfo
	err := c.do(ctx, http.MethodPut, "/v1/graphs/"+url.PathEscape(name), GraphRequest{Gen: &gen}, &out)
	return out, err
}

// GetGraph fetches a stored graph's metadata.
func (c *Client) GetGraph(ctx context.Context, name string) (GraphInfo, error) {
	var out GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(name), nil, &out)
	return out, err
}

// ListGraphs lists every stored graph.
func (c *Client) ListGraphs(ctx context.Context) ([]GraphInfo, error) {
	var out struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/graphs", nil, &out)
	return out.Graphs, err
}

// DeleteGraph removes a stored graph; pinned graphs refuse with a 409
// APIError.
func (c *Client) DeleteGraph(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), nil, nil)
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the merged service and batch counters.
func (c *Client) Metrics(ctx context.Context) (MetricsResponse, error) {
	var out MetricsResponse
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}

// PromMetrics fetches /metrics in the Prometheus text exposition format by
// negotiating text/plain. It works against both server modes.
func (c *Client) PromMetrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, "Accept", "text/plain")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// GetCluster fetches the coordinator's health/placement view. Only
// coordinator-mode servers (cmd/reprod -workers) serve it.
func (c *Client) GetCluster(ctx context.Context) (ClusterView, error) {
	var out ClusterView
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &out)
	return out, err
}

// ClusterMetrics fetches the coordinator-mode /metrics document (coordinator
// counters plus summed fleet counters).
func (c *Client) ClusterMetrics(ctx context.Context) (ClusterMetrics, error) {
	var out ClusterMetrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}

// SubmitJob submits one job.
func (c *Client) SubmitJob(ctx context.Context, req SubmitRequest) (JobResponse, error) {
	var out JobResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// GetJob polls one job.
func (c *Client) GetJob(ctx context.Context, id string) (JobResponse, error) {
	var out JobResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (JobResponse, error) {
	var out JobResponse
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// SubmitJobGroup submits one job group (N seeds of one algorithm against a
// stored graph).
func (c *Client) SubmitJobGroup(ctx context.Context, req JobGroupRequest) (JobGroupResponse, error) {
	return c.jobGroup(ctx, http.MethodPost, "/v1/jobgroups", req)
}

// GetJobGroup polls one job group; wait > 0 long-polls server-side until
// the group is terminal or wait has elapsed.
func (c *Client) GetJobGroup(ctx context.Context, id string, wait time.Duration) (JobGroupResponse, error) {
	return c.jobGroup(ctx, http.MethodGet, "/v1/jobgroups/"+url.PathEscape(id)+waitQuery(wait), nil)
}

// CancelJobGroup cancels a queued or running job group.
func (c *Client) CancelJobGroup(ctx context.Context, id string) (JobGroupResponse, error) {
	return c.jobGroup(ctx, http.MethodDelete, "/v1/jobgroups/"+url.PathEscape(id), nil)
}

// jobGroup round-trips one job-group request in the binary rendering and
// reads the answer with the batch stream's reader. WireBytes reports the
// body size.
func (c *Client) jobGroup(ctx context.Context, method, path string, in any) (JobGroupResponse, error) {
	resp, err := c.sendJSON(ctx, method, path, in, "Accept", GroupBinaryContentType)
	if err != nil {
		return JobGroupResponse{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return JobGroupResponse{}, err
	}
	var out JobGroupResponse
	var cells []BatchCellView
	if err := readStreamBody(bytes.NewReader(body), func(cv BatchCellView) error {
		cells = append(cells, cv)
		return nil
	}, &out); err != nil {
		return JobGroupResponse{}, err
	}
	out.Cells, out.WireBytes = cells, len(body)
	return out, nil
}

// SubmitBatch submits a batch.
func (c *Client) SubmitBatch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/batches", req, &out)
	return out, err
}

// GetBatch polls a batch; wait > 0 long-polls server-side until the batch
// is terminal or wait has elapsed.
func (c *Client) GetBatch(ctx context.Context, id string, wait time.Duration) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodGet, "/v1/batches/"+url.PathEscape(id)+waitQuery(wait), nil, &out)
	return out, err
}

// waitQuery renders a long-poll wait as a ?wait= query, "" for none.
func waitQuery(wait time.Duration) string {
	if wait <= 0 {
		return ""
	}
	return "?wait=" + url.QueryEscape(wait.String())
}

// CancelBatch cancels a running batch.
func (c *Client) CancelBatch(ctx context.Context, id string) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodDelete, "/v1/batches/"+url.PathEscape(id), nil, &out)
	return out, err
}

// WaitBatch long-polls the batch until it is terminal or timeout elapses
// (timeout <= 0 waits indefinitely), re-issuing bounded server-side waits so
// proxies with idle limits stay happy.
func (c *Client) WaitBatch(ctx context.Context, id string, timeout time.Duration) (BatchResponse, error) {
	deadline := time.Now().Add(timeout)
	for {
		wait := 10 * time.Second
		if timeout > 0 {
			left := time.Until(deadline)
			if left <= 0 {
				return BatchResponse{}, fmt.Errorf("httpapi: batch %s not terminal after %s", id, timeout)
			}
			wait = min(wait, left)
		}
		v, err := c.GetBatch(ctx, id, wait)
		if err != nil {
			return v, err
		}
		if v.Terminal() {
			return v, nil
		}
	}
}
