package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// fuzzGenCap bounds fuzzed generator sizes: resolveGraph builds generator
// specs synchronously in the handler, so the fuzzer must probe the decoding
// and validation paths, not the graph generators' throughput.
const fuzzGenCap = 4096

// fuzzBodyTooExpensive reports whether a body, if it decodes at all, asks
// for work beyond what a fuzz iteration should pay for.
func fuzzBodyTooExpensive(body string) bool {
	if len(body) > 1<<16 {
		return true
	}
	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return false // the handler must reject it cheaply; let it through
	}
	if g := req.Gen; g != nil {
		if g.N > fuzzGenCap || g.N2 > fuzzGenCap || g.Rows > 256 || g.Cols > 256 ||
			g.Spine > fuzzGenCap || g.Legs > 256 || g.D > 256 {
			return true
		}
	}
	return false
}

// FuzzHandleJobSubmit fuzzes POST /v1/jobs with arbitrary (mostly malformed)
// bodies: the handler must never panic and must answer every body with one
// of its documented statuses. Accepted jobs are canceled immediately so the
// fuzzer never waits on algorithm execution. The committed seed corpus lives
// in testdata/fuzz/FuzzHandleJobSubmit.
func FuzzHandleJobSubmit(f *testing.F) {
	f.Add(`{"algo":"mwm2","gen":{"gen":"gnp","n":8,"p":0.5,"seed":1,"maxw":8}}`)
	f.Add(`{"algo":"maxis","graph":"3 2\n1 2 3\n0 1 5\n1 2 7\n"}`)
	f.Add(`{"algo":"maxis","graph_name":"missing"}`)
	f.Add(`{"algo":"quantum"}`)
	f.Add(`{{{`)
	f.Add(`{"algo":"maxis","gne":{"gen":"gnp","n":4,"p":0.5}}`)
	f.Add(`{"algo":"maxis","graph":"1000000000 0\n"}`)
	f.Add(`{"algo":"fastmcm","gen":{"gen":"gnp","n":8,"p":0.5},"params":{"eps":-1}}`)
	f.Add(`{"algo":"nmis","gen":{"gen":"grid","rows":3,"cols":3},"params":{"k":2,"delta":0.5}}`)
	f.Add(`{"algo":"maxis","graph":"1 0\n1\n","gen":{"gen":"gnp","n":4,"p":0.5}}`)

	svc := service.New(service.Config{Workers: 1, QueueSize: 16, DefaultTimeout: 50 * time.Millisecond})
	f.Cleanup(svc.Close)
	st := store.New(store.Config{})
	handler := NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{}))

	f.Fuzz(func(t *testing.T, body string) {
		if fuzzBodyTooExpensive(body) {
			t.Skip("body beyond the fuzz work cap")
		}
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		handler.ServeHTTP(rr, req)

		switch rr.Code {
		case http.StatusAccepted:
			// Valid submission: cancel it so the worker pool stays free.
			var jr JobResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &jr); err != nil || jr.ID == "" {
				t.Fatalf("202 with undecodable body %q: %v", rr.Body.String(), err)
			}
			cancel := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+jr.ID, nil)
			crr := httptest.NewRecorder()
			handler.ServeHTTP(crr, cancel)
			if crr.Code != http.StatusOK && crr.Code != http.StatusConflict {
				t.Fatalf("cancel of fuzz job %s: status %d", jr.ID, crr.Code)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusServiceUnavailable:
			// Documented rejections; the error envelope must be JSON.
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("status %d with bad error envelope %q", rr.Code, rr.Body.String())
			}
		default:
			t.Fatalf("undocumented status %d for body %q", rr.Code, body)
		}
	})
}

// FuzzStreamBody fuzzes readStreamBody, the one reader of RBS1 bodies —
// batch streams and job-group answers alike: magic, frames, cell payloads
// and the JSON summary. Arbitrary bodies must never panic, and reading
// their frames must reserve memory only for bytes that arrived: at most
// four times the body's length plus a fixed slack, whatever lengths its
// frame headers declare. The seeds are encoder output — a batch stream
// with a keepalive, and a job group's binary answer — plus a 15-byte body
// that declares a 256 MiB frame.
func FuzzStreamBody(f *testing.F) {
	var stream bytes.Buffer
	stream.WriteString(streamMagic)
	_ = writeStreamFrame(&stream, StreamFrameCell, encodeStreamCell(BatchCellView{
		Graph: "g", Algo: "mwm2", JobID: "j1", TraceID: "t.000", State: "done", CacheHit: true,
		Params: &ParamsRequest{Eps: 0.5, Seed: 3},
		Result: &JobResult{Kind: "matching", Size: 2, Weight: -7, Edges: []int{1, -1, 0, 4, -1},
			Cost: registry.Cost{Rounds: 9, RealRounds: 3, Messages: 40, Bits: 640, MaxMessageBits: 16, BitBudget: 32}},
	}))
	_ = writeStreamFrame(&stream, StreamFrameKeepalive, nil)
	_ = writeStreamFrame(&stream, StreamFrameCell, encodeStreamCell(BatchCellView{
		Index: 1, Graph: "g", Algo: "mwm2", State: "failed", Error: "timeout",
	}))
	summary, err := json.Marshal(BatchResponse{ID: "b00000001", State: "done", Total: 2, Done: 1, Failed: 1})
	if err != nil {
		f.Fatal(err)
	}
	_ = writeStreamFrame(&stream, StreamFrameBatch, summary)
	f.Add(stream.Bytes())

	group := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobgroups/g00000001", nil)
	req.Header.Set("Accept", GroupBinaryContentType)
	writeGroup(group, req, http.StatusOK, JobGroupResponse{
		ID: "g00000001", Algo: "maxis", State: "canceled", Total: 2, Done: 2,
		SubmittedAt: time.Unix(1_700_000_000, 123),
		Cells: []BatchCellView{
			{TraceID: "t.000", State: "done", Result: &JobResult{
				Kind: "independent_set", Size: 3, Weight: 12, Uncovered: 1,
				InSet: []bool{true, false, true, false, false, false, false, false, true, true},
				Trace: &obs.RoundTrace{Rounds: 3, VirtualRounds: 9, Messages: 40, Bits: 640,
					PeakRoundMessages: 20, PeakRoundBits: 320, PeakActive: 10, CompactMoves: 2, MemoHits: 5, MemoMisses: 1},
			}},
			{Index: 1, TraceID: "t.001", State: "canceled"},
		},
	})
	f.Add(group.Body.Bytes())
	f.Add(append(binary.BigEndian.AppendUint32(append([]byte(streamMagic), StreamFrameCell), maxStreamFrame), "abcdef"...))
	f.Add([]byte(streamMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, summary := range []any{&BatchResponse{}, &JobGroupResponse{}} {
			_ = readStreamBody(bytes.NewReader(data), func(BatchCellView) error { return nil }, summary)
		}
		frames := func() {
			r := bytes.NewReader(data[min(len(data), len(streamMagic)):])
			for {
				if _, _, err := ReadStreamFrame(r); err != nil {
					return
				}
			}
		}
		if got, limit := allocBytes(frames), 4*uint64(len(data))+64<<10; got > limit {
			t.Fatalf("reading the frames of a %d-byte body allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
