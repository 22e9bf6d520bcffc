package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// streamCells drains one StreamBatch call into a slice.
func streamCells(t *testing.T, c *Client, id string, from int) ([]BatchCellView, BatchResponse) {
	t.Helper()
	var cells []BatchCellView
	fin, err := c.StreamBatch(context.Background(), id, from, func(cv BatchCellView) error {
		cells = append(cells, cv)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells, fin
}

// TestStreamMatchesTerminalGet is the equivalence contract: the cells a
// stream delivers are exactly the cells of the terminal GET, field for
// field, and the closing summary agrees with the terminal snapshot.
func TestStreamMatchesTerminalGet(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 4}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 24, P: 0.2, Seed: 7, MaxW: 32}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2", "fastmcm"}, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitBatch(ctx, b.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	cells, sum := streamCells(t, c, b.ID, 0)
	if len(cells) != len(fin.Cells) {
		t.Fatalf("streamed %d cells, terminal GET has %d", len(cells), len(fin.Cells))
	}
	for i := range cells {
		if !reflect.DeepEqual(cells[i], fin.Cells[i]) {
			t.Errorf("cell %d differs:\nstream: %+v\nget:    %+v", i, cells[i], fin.Cells[i])
		}
	}
	if sum.State != fin.State || sum.Done != fin.Done || sum.Total != fin.Total || sum.ID != fin.ID {
		t.Fatalf("summary %+v disagrees with terminal GET %+v", sum, fin)
	}
	if len(sum.Cells) != 0 {
		t.Fatalf("summary carries %d cells; they were already streamed", len(sum.Cells))
	}
	if len(sum.Groups) != len(fin.Groups) {
		t.Fatalf("summary has %d groups, terminal GET %d", len(sum.Groups), len(fin.Groups))
	}

	// Every streamed cell must round-trip the binary cell codec unchanged —
	// the frames on the wire already did, but pin the property directly.
	for i, cv := range cells {
		dec, err := DecodeStreamCell(encodeStreamCell(cv))
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if !reflect.DeepEqual(dec, cv) {
			t.Fatalf("cell %d codec round trip:\nin:  %+v\nout: %+v", i, cv, dec)
		}
	}
}

// TestStreamIncrementalDelivery pins the point of the endpoint: a settled
// cell arrives while the rest of the batch is still running, not after.
func TestStreamIncrementalDelivery(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	started, release := registerBlocker(t, "park-stream")
	defer release()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 16, P: 0.25, Seed: 3, MaxW: 8}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(ctx, BatchRequest{Cells: []BatchCell{
		{Graph: "g", Algo: "mwm2", Params: &ParamsRequest{Seed: 1}},
		{Graph: "g", Algo: "park-stream", Params: &ParamsRequest{Seed: 2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // cell 1 is parked on the blocker

	got := make(chan BatchCellView, 4)
	done := make(chan error, 1)
	go func() {
		_, err := c.StreamBatch(ctx, b.ID, 0, func(cv BatchCellView) error {
			got <- cv
			return nil
		})
		done <- err
	}()

	// Cell 0 must arrive while cell 1 is still parked.
	select {
	case cv := <-got:
		if cv.Index != 0 || cv.State != "done" {
			t.Fatalf("first streamed cell %+v", cv)
		}
	case err := <-done:
		t.Fatalf("stream ended early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("cell 0 never streamed while the batch was running")
	}
	if v, err := c.GetBatch(ctx, b.ID, 0); err != nil || v.Terminal() {
		t.Fatalf("batch should still be running when cell 0 streams: %+v, %v", v, err)
	}

	release()
	select {
	case cv := <-got:
		if cv.Index != 1 {
			t.Fatalf("second streamed cell %+v", cv)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cell 1 never streamed after release")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStreamResume covers both resume spellings: ?from= (the client helper)
// and the SSE Last-Event-ID header replay only the still-unseen suffix.
func TestStreamResume(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 2}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 16, P: 0.25, Seed: 4, MaxW: 8}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitBatch(ctx, b.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	cells, _ := streamCells(t, c, b.ID, 2)
	if len(cells) != 1 || cells[0].Index != 2 {
		t.Fatalf("resume from 2 streamed %+v, want exactly cell 2", cells)
	}
	// from == total is a valid resume: no cells, straight to the summary.
	cells, sum := streamCells(t, c, b.ID, 3)
	if len(cells) != 0 || sum.State != "done" {
		t.Fatalf("resume at end streamed %d cells, summary %+v", len(cells), sum)
	}

	// Raw SSE with Last-Event-ID: the server must start after the given id.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"/stream", nil)
	req.Header.Set("Last-Event-ID", "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("SSE content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if strings.Contains(text, "id: 0\n") {
		t.Fatal("Last-Event-ID: 0 replayed cell 0")
	}
	for _, want := range []string{"id: 1\n", "id: 2\n", "event: cell\n", "event: batch\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("SSE body missing %q:\n%s", want, text)
		}
	}

	// The SSE rendering feeds the same client-side decoder as binary.
	sseReq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"/stream", nil)
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	var sseCells []BatchCellView
	sum2, err := readSSEStream(sseResp.Body, func(cv BatchCellView) error {
		sseCells = append(sseCells, cv)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sseCells) != 3 || sum2.State != "done" {
		t.Fatalf("SSE decode: %d cells, summary %+v", len(sseCells), sum2)
	}
	binCells, _ := streamCells(t, c, b.ID, 0) // client negotiates binary
	if !reflect.DeepEqual(sseCells, binCells) {
		t.Fatalf("SSE and binary renderings disagree:\nsse: %+v\nbin: %+v", sseCells, binCells)
	}
}

// TestStreamBadRequests pins the stream endpoint's error surface.
func TestStreamBadRequests(t *testing.T) {
	ts, _, _ := newFullServer(t, service.Config{Workers: 1}, service.BatchConfig{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.PutGraphGen(ctx, "g", GenRequest{Gen: "gnp", N: 12, P: 0.3, Seed: 1, MaxW: 4}); err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitBatch(ctx, BatchRequest{Graphs: []string{"g"}, Algos: []string{"mwm2"}, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitBatch(ctx, b.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	for name, path := range map[string]string{
		"negative from":   "/v1/batches/" + b.ID + "/stream?from=-1",
		"garbage from":    "/v1/batches/" + b.ID + "/stream?from=banana",
		"from past total": "/v1/batches/" + b.ID + "/stream?from=2",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/batches/b999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch stream: status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batches/"+b.ID+"/stream", nil)
	req.Header.Set("Last-Event-ID", "banana")
	lresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: status %d", lresp.StatusCode)
	}
}

// TestStreamCellCodecEdges exercises the decoder against hand-made
// corruption the fuzzer also hunts for: truncation, trailing bytes, bad
// state codes, and oversized frame lengths.
func TestStreamCellCodecEdges(t *testing.T) {
	good := encodeStreamCell(BatchCellView{
		Index: 3, Graph: "g", Algo: "mwm2", JobID: "j1", TraceID: "t1",
		State: "failed", Error: "boom", CacheHit: true,
		Params: &ParamsRequest{Eps: 0.5, K: 2, Delta: 0.1, MIS: "maxis", Model: "congest", Seed: 9, DetColoring: true},
	})
	cv, err := DecodeStreamCell(good)
	if err != nil {
		t.Fatal(err)
	}
	if cv.State != "failed" || cv.Error != "boom" || !cv.CacheHit || cv.Params == nil || cv.Params.Seed != 9 {
		t.Fatalf("decoded %+v", cv)
	}
	for i := 1; i < len(good); i++ {
		if _, err := DecodeStreamCell(good[:i]); err == nil {
			t.Fatalf("truncation at %d decoded", i)
		}
	}
	if _, err := DecodeStreamCell(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A state outside the lifecycle enum is a programming error: the encoder
	// panics rather than emitting an undecodable frame.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("encodeStreamCell accepted an unknown state")
			}
		}()
		encodeStreamCell(BatchCellView{State: "quantum"})
	}()

	// A corrupt frame length must be bounded, not allocated.
	frame := []byte{StreamFrameCell, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadStreamFrame(strings.NewReader(string(frame))); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	var sb strings.Builder
	if err := writeStreamFrame(&sb, StreamFrameCell, good); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadStreamFrame(bufio.NewReader(strings.NewReader(sb.String())))
	if err != nil || typ != StreamFrameCell || !reflect.DeepEqual(payload, good) {
		t.Fatalf("frame round trip: typ %d err %v", typ, err)
	}
	// A frame several times frameChunk arrives whole, however its buffer
	// grew, and leaves the reader at the next frame.
	long := make([]byte, 3*frameChunk+5)
	for i := range long {
		long[i] = byte(i * 7)
	}
	var frames bytes.Buffer
	_ = writeStreamFrame(&frames, StreamFrameCell, long)
	_ = writeStreamFrame(&frames, StreamFrameKeepalive, nil)
	if typ, payload, err := ReadStreamFrame(&frames); err != nil || typ != StreamFrameCell || !bytes.Equal(payload, long) {
		t.Fatalf("long frame round trip: typ %d err %v, %d of %d bytes", typ, err, len(payload), len(long))
	}
	if typ, _, err := ReadStreamFrame(&frames); err != nil || typ != StreamFrameKeepalive {
		t.Fatalf("frame after the long one: typ %d err %v", typ, err)
	}
}

// TestStreamBodyAllocatesWhatItReads: a 15-byte RBS1 body whose one frame
// header declares the 256 MiB frame limit fails as truncated, and reading
// it allocates within 64 KiB of reading the same body declaring a 7-byte
// frame. The reader reserves memory for the bytes it has read, not for the
// length a header claims; the coordinator reads every worker's job-group
// answer through it.
func TestStreamBodyAllocatesWhatItReads(t *testing.T) {
	body := func(declared uint32) []byte {
		b := binary.BigEndian.AppendUint32(append([]byte(streamMagic), StreamFrameCell), declared)
		return append(b, "abcdef"...)
	}
	read := func(b []byte) func() {
		return func() {
			_ = readStreamBody(bytes.NewReader(b), func(BatchCellView) error { return nil }, &BatchResponse{})
		}
	}
	if err := readStreamBody(bytes.NewReader(body(maxStreamFrame)), func(BatchCellView) error { return nil }, &BatchResponse{}); err == nil {
		t.Fatal("a 15-byte body declaring a 256 MiB frame was read")
	}
	big, small := allocBytes(read(body(maxStreamFrame))), allocBytes(read(body(7)))
	if big > small+64<<10 {
		t.Fatalf("declaring a %d-byte frame allocated %d bytes, declaring 7 bytes %d: %d bytes reserved for input never read",
			maxStreamFrame, big, small, big-small)
	}
}

// allocBytes returns the heap bytes one call of f allocates, the least of
// three calls so that an allocation elsewhere in the process cannot inflate
// it.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBodyTooLargeIs413 is the oversized-body bugfix: a body over the cap
// answers 413 with the machine-readable body_too_large code (it used to
// surface as a generic 400), on both the JSON and the streaming upload
// paths.
func TestBodyTooLargeIs413(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	st := store.New(store.Config{})
	h := NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{}), WithMaxBodyBytes(512))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	big := strings.Repeat("x", 2048)
	// Valid fixed-width edge-list lines (8 bytes each, so the 512-byte cap
	// cuts on a line boundary): the parser must hit the size cap, not a
	// malformed truncated line, for the 413 to be attributable to the cap.
	var edges strings.Builder
	for i := 1; edges.Len() < 2048; i++ {
		fmt.Fprintf(&edges, "%03d %03d\n", 0, i)
	}
	cases := map[string]struct {
		method, path, ctype, body string
	}{
		"json job submit":  {http.MethodPost, "/v1/jobs", "application/json", `{"algo":"maxis","graph":"` + big + `"}`},
		"json graph put":   {http.MethodPut, "/v1/graphs/big", "application/json", `{"graph":"` + big + `"}`},
		"edge list upload": {http.MethodPut, "/v1/graphs/el", GraphEdgeListContentType, edges.String()},
	}
	for name, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.ctype)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (body %s)", name, resp.StatusCode, raw)
			continue
		}
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Code != CodeBodyTooLarge {
			t.Errorf("%s: envelope %s, want code %q", name, raw, CodeBodyTooLarge)
		}
	}

	// A body under the cap still works.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/ok", strings.NewReader(`{"gen":{"gen":"gnp","n":8,"p":0.5,"seed":1}}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("small body: status %d", resp.StatusCode)
	}
}

// TestWriteJSONNeverTearsA200 is the torn-body bugfix: an unencodable value
// must produce a clean 500 envelope, never a 200 status line with a
// truncated body.
func TestWriteJSONNeverTearsA200(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == "" {
		t.Fatalf("500 body %q is not a clean error envelope", rr.Body.String())
	}

	rr2 := httptest.NewRecorder()
	writeJSON(rr2, http.StatusCreated, map[string]int{"ok": 1})
	if rr2.Code != http.StatusCreated || !strings.Contains(rr2.Body.String(), `"ok":1`) {
		t.Fatalf("happy path: %d %q", rr2.Code, rr2.Body.String())
	}
}

// FuzzStreamChunkDecode fuzzes the binary stream cell decoder: arbitrary
// payloads must never panic, and the encoding is canonical — anything that
// decodes re-encodes to exactly the bytes it was decoded from. The committed
// corpus in testdata/fuzz/FuzzStreamChunkDecode holds encoder output with
// one byte changed to what the encoder never writes: an unknown flag bit, a
// trace flag without a result, an error flag over an empty string and a
// det_coloring byte of 2.
func FuzzStreamChunkDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeStreamCell(BatchCellView{State: "queued"}))
	f.Add(encodeStreamCell(BatchCellView{
		Index: 2, Graph: "g", Algo: "mwm2", JobID: "j7", TraceID: "abc",
		State: "done", CacheHit: true,
		Params: &ParamsRequest{Eps: 0.25, K: 3, Delta: 0.5, MIS: "maxis", Model: "local", Seed: 11},
	}))
	f.Add(encodeStreamCell(BatchCellView{State: "failed", Error: "timeout"}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		cv, err := DecodeStreamCell(data)
		if err != nil {
			return
		}
		// Floats travel as their bits, so byte equality holds for NaNs too.
		if re := encodeStreamCell(cv); !bytes.Equal(re, data) {
			t.Fatalf("decoded %+v re-encodes to\n%x\nnot\n%x", cv, re, data)
		}
	})
}
