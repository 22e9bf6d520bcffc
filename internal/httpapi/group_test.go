package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/tenant"
)

// pollGroup long-polls GET /v1/jobgroups/{id} through the client (which
// negotiates the binary rendering) until the group is terminal.
func pollGroup(t *testing.T, c *Client, id string) JobGroupResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		gv, err := c.GetJobGroup(context.Background(), id, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if gv.Terminal() {
			return gv
		}
	}
	t.Fatalf("group %s never finished", id)
	return JobGroupResponse{}
}

// TestJobGroupLifecycleHTTP is the end-to-end jobgroup path over HTTP:
// submit a seed group against a stored graph, poll to done through the binary
// rendering, check per-seed results and trace alignment, observe the result
// cache on resubmission, and hit the 404/409 error surface.
func TestJobGroupLifecycleHTTP(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "gg", GenRequest{Gen: "gnp", N: 48, P: 0.1, Seed: 3, MaxW: 32}); err != nil {
		t.Fatal(err)
	}

	seeds := []uint64{1, 2, 3, 4, 5, 6}
	traces := make([]string, len(seeds))
	for i := range traces {
		traces[i] = fmt.Sprintf("trace-cell-%d", i)
	}
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{
		Algo: "mwm2", GraphName: "gg", Seeds: seeds, Traces: traces,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Total != len(seeds) {
		t.Fatalf("submit response %+v", sub)
	}

	gv := pollGroup(t, c, sub.ID)
	if gv.State != "done" || gv.Done != len(seeds) || len(gv.Cells) != len(seeds) {
		t.Fatalf("terminal group %s: state=%s done=%d cells=%d", gv.ID, gv.State, gv.Done, len(gv.Cells))
	}
	if gv.WireBytes <= 0 {
		t.Fatalf("WireBytes %d, want body size", gv.WireBytes)
	}
	for i, cell := range gv.Cells {
		if cell.Index != i || cell.TraceID != traces[i] {
			t.Fatalf("cell %d: index=%d trace=%q, want index=%d trace=%q",
				i, cell.Index, cell.TraceID, i, traces[i])
		}
		if cell.State != "done" || cell.Error != "" || cell.Result == nil {
			t.Fatalf("cell %d: %+v", i, cell)
		}
		res, err := cell.Result.ToResult()
		if err != nil {
			t.Fatalf("cell %d result: %v", i, err)
		}
		if res.Weight <= 0 || len(res.Edges) == 0 {
			t.Fatalf("cell %d: implausible mwm2 result %+v", i, res)
		}
	}

	// Same group again: every seed's result is already cached.
	re, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "mwm2", GraphName: "gg", Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	rv := pollGroup(t, c, re.ID)
	for i, cell := range rv.Cells {
		if !cell.CacheHit {
			t.Fatalf("resubmitted cell %d not a cache hit: %+v", i, cell)
		}
	}

	// Error surface: unknown id and canceling a finished group.
	_, err = c.GetJobGroup(ctx, "nope", 0)
	wantStatus(t, err, http.StatusNotFound)
	_, err = c.CancelJobGroup(ctx, sub.ID)
	wantStatus(t, err, http.StatusConflict)
	_, err = c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "mwm2", GraphName: "nope", Seeds: seeds})
	wantStatus(t, err, http.StatusNotFound)
}

// TestJobGroupCancelHTTP cancels a group queued behind a long-running group
// and checks the whole victim lands canceled. The blocker group's cells park
// on a channel barrier until the victim's cancel is asserted, so no graph
// sizing against the runner's speed is involved.
func TestJobGroupCancelHTTP(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	started, release := registerBlocker(t, "park-group")
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "big", GenRequest{Gen: "gnp", N: 32, P: 0.1, Seed: 1, MaxW: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutGraphGen(ctx, "gg", GenRequest{Gen: "gnp", N: 32, P: 0.1, Seed: 9, MaxW: 16}); err != nil {
		t.Fatal(err)
	}
	blocker, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "park-group", GraphName: "big", Seeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the blocker group owns the worker before the victim arrives
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "maxis", GraphName: "gg", Seeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJobGroup(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	gv := pollGroup(t, c, sub.ID)
	if gv.State != "canceled" {
		t.Fatalf("group state %s, want canceled", gv.State)
	}
	for i, cell := range gv.Cells {
		if cell.State != "canceled" {
			t.Fatalf("cell %d state %s, want canceled", i, cell.State)
		}
	}
	release()
	if bv := pollGroup(t, c, blocker.ID); bv.State != "done" {
		t.Fatalf("blocker group state %s, want done", bv.State)
	}
}

// TestJobGroupLongPollHTTP: GET /v1/jobgroups/{id}?wait= parks until the
// group finishes and answers well before the wait runs out; a malformed
// wait is a 400.
func TestJobGroupLongPollHTTP(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	started, release := registerBlocker(t, "park-longpoll")
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.PutGraphGen(ctx, "gg", GenRequest{Gen: "gnp", N: 16, P: 0.2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "park-longpoll", GraphName: "gg", Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	if resp, env := doRaw(t, http.MethodGet, ts.URL+"/v1/jobgroups/"+sub.ID+"?wait=bogus", "", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?wait=bogus: status %d, envelope %v", resp.StatusCode, env)
	}

	time.AfterFunc(100*time.Millisecond, release)
	start := time.Now()
	gv, err := c.GetJobGroup(ctx, sub.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if gv.State != "done" || gv.Done != 2 {
		t.Fatalf("long-poll answered state %s with %d of 2 done, want the finished group", gv.State, gv.Done)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("long-poll held %v after the group finished", took)
	}
}

// TestJobGroupLongPollKeyed: in keyed mode another tenant's group answers
// 404 without parking, and a long-poll over the tenant's waiter allowance
// answers at once with the current snapshot and Retry-After.
func TestJobGroupLongPollKeyed(t *testing.T) {
	keys := "w " + tenant.HashKey("w-key") + " waiters=1\nx " + tenant.HashKey("x-key") + "\n"
	ts, _ := newTenantServer(t, keys, service.Config{Workers: 1})
	started, release := registerBlocker(t, "park-keyed")
	ctx := context.Background()
	c := NewClient(ts.URL, nil).WithAPIKey("w-key")
	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 8, P: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "park-keyed", GraphName: "g", Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the group is running: a long-poll on it would park
	groupURL := ts.URL + "/v1/jobgroups/" + sub.ID

	start := time.Now()
	if resp, _ := doRaw(t, http.MethodGet, groupURL+"?wait=5s", "x-key", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("another tenant's long-poll: status %d, want 404", resp.StatusCode)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("another tenant's long-poll parked for %v", took)
	}

	// Hold w's one waiter slot with a batch stream: its 200 header is
	// written only once the slot is taken.
	b, err := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"park-keyed"}, Seeds: []uint64{2}})
	if err != nil {
		t.Fatal(err)
	}
	sreq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"/stream", nil)
	sreq.Header.Set(APIKeyHeader, "w-key")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	start = time.Now()
	resp, _ := doRaw(t, http.MethodGet, groupURL+"?wait=10s", "w-key", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("long-poll over the waiter allowance: status %d, Retry-After %q; want 200 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("long-poll over the waiter allowance parked for %v", took)
	}
	release()
	if gv := pollGroup(t, c, sub.ID); gv.State != "done" {
		t.Fatalf("group state %s after release, want done", gv.State)
	}
	// The stream ends once its batch is done; reading it to the end means
	// its handler has returned before the blocker is unregistered.
	if _, err := io.Copy(io.Discard, sresp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestGroupBinaryMatchesJSON pins the group rendering contract: the binary
// answer is an RBS1 body — the magic, one cell frame per seed in index
// order, then the summary frame — the binary and JSON renderings of the
// same group snapshot decode to identical JobGroupResponse structs, and
// the binary body is substantially smaller.
func TestGroupBinaryMatchesJSON(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "gg", GenRequest{Gen: "gnp", N: 64, P: 0.1, Seed: 11, MaxW: 64}); err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{
		Algo: "maxis", GraphName: "gg", Seeds: seeds, TraceID: "trace-group-codec",
	})
	if err != nil {
		t.Fatal(err)
	}
	pollGroup(t, c, sub.ID)

	fetch := func(accept string) (body []byte, contentType string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobgroups/"+sub.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET with Accept %q: status %d", accept, resp.StatusCode)
		}
		return body, resp.Header.Get("Content-Type")
	}

	binBody, binType := fetch(GroupBinaryContentType)
	if binType != GroupBinaryContentType {
		t.Fatalf("binary Content-Type %q", binType)
	}
	jsonBody, jsonType := fetch("application/json")
	if jsonType != "application/json" {
		t.Fatalf("json Content-Type %q", jsonType)
	}

	var fromJSON JobGroupResponse
	if err := json.Unmarshal(jsonBody, &fromJSON); err != nil {
		t.Fatal(err)
	}
	// The magic, one cell frame per seed, then the summary frame, which
	// ends the body.
	if !bytes.HasPrefix(binBody, []byte(streamMagic)) {
		t.Fatalf("binary body does not start %q", streamMagic)
	}
	frames := bytes.NewReader(binBody[len(streamMagic):])
	for i := 0; i <= len(seeds); i++ {
		want := StreamFrameCell
		if i == len(seeds) {
			want = StreamFrameBatch
		}
		if typ, _, err := ReadStreamFrame(frames); err != nil || typ != want {
			t.Fatalf("frame %d: type %d, err %v; want type %d", i, typ, err, want)
		}
	}
	if frames.Len() != 0 {
		t.Fatalf("%d bytes after the summary frame", frames.Len())
	}
	var fromBin JobGroupResponse
	if err := readStreamBody(bytes.NewReader(binBody), func(cv BatchCellView) error {
		if cv.Index != len(fromBin.Cells) {
			return fmt.Errorf("cell frame %d carries index %d", len(fromBin.Cells), cv.Index)
		}
		fromBin.Cells = append(fromBin.Cells, cv)
		return nil
	}, &fromBin); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin, fromJSON) {
		t.Fatalf("renderings diverge:\nbinary: %+v\njson:   %+v", fromBin, fromJSON)
	}

	if len(binBody)*2 >= len(jsonBody) {
		t.Fatalf("binary body %d bytes vs json %d: expected at least 2x compaction", len(binBody), len(jsonBody))
	}
}

// TestBinaryGraphUploadParity pins the fingerprint contract of the binary
// upload path: PUT with the graph.EncodeBinary body registers the same graph
// — same fingerprint, deduplicated payload — as the text upload.
func TestBinaryGraphUploadParity(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	g := repro.GNP(40, 0.12, 77)
	repro.AssignUniformEdgeWeights(g, 30, 78)

	var text bytes.Buffer
	if err := repro.WriteGraph(&text, g); err != nil {
		t.Fatal(err)
	}
	txtInfo, err := c.PutGraph(ctx, "as-text", text.String())
	if err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	if err := graph.EncodeBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	binInfo, sent, err := c.PutGraphBinary(ctx, "as-binary", bin.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sent != bin.Len() {
		t.Fatalf("reported %d wire bytes, sent %d", sent, bin.Len())
	}
	if binInfo.Fingerprint != txtInfo.Fingerprint {
		t.Fatalf("fingerprints diverge: binary %s, text %s", binInfo.Fingerprint, txtInfo.Fingerprint)
	}
	if !binInfo.Dedup || binInfo.Shared != 2 {
		t.Fatalf("binary upload not deduplicated against text twin: %+v", binInfo)
	}
	if binInfo.Nodes != 40 || binInfo.Edges != txtInfo.Edges {
		t.Fatalf("binary info %+v vs text %+v", binInfo, txtInfo)
	}

	// And the registered graph is runnable.
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "mwm2", GraphName: "as-binary", Seeds: []uint64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if gv := pollGroup(t, c, sub.ID); gv.State != "done" {
		t.Fatalf("group over binary-registered graph: %s", gv.State)
	}
}

// TestJobGroupAdmissionHTTP: group seeds are admitted through the job
// queue, so a group the queue cannot take answers 503 queue_full (which
// the coordinator backs off on) and one larger than the queue bound, which
// could never be admitted, answers 400.
func TestJobGroupAdmissionHTTP(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1, QueueSize: 1}, service.BatchConfig{})
	started, release := registerBlocker(t, "park-group-admit")
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	for i, name := range []string{"a", "b", "gg"} {
		if _, err := c.PutGraphGen(ctx, name, GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: uint64(i + 1), MaxW: 16}); err != nil {
			t.Fatal(err)
		}
	}
	// Park the worker on a, then fill the one queue slot with b.
	if _, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "park-group-admit", GraphName: "a", Seeds: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "park-group-admit", GraphName: "b", Seeds: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	_, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "maxis", GraphName: "gg", Seeds: []uint64{1}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeQueueFull {
		t.Fatalf("group against a full queue: %v, want 503 %s", err, CodeQueueFull)
	}
	_, err = c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "maxis", GraphName: "gg", Seeds: []uint64{1, 2}})
	wantStatus(t, err, http.StatusBadRequest)

	release()
	sub, err := c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "maxis", GraphName: "gg", Seeds: []uint64{1}})
	for err != nil {
		// The queue slot frees once the parked cells drain.
		if !errors.As(err, &apiErr) || apiErr.Code != CodeQueueFull {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		sub, err = c.SubmitJobGroup(ctx, JobGroupRequest{Algo: "maxis", GraphName: "gg", Seeds: []uint64{1}})
	}
	if gv := pollGroup(t, c, sub.ID); gv.State != "done" {
		t.Fatalf("group after the queue drained: %s", gv.State)
	}
}
