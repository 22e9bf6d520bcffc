package cluster

import (
	"bytes"
	"encoding/binary"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// TestCellSkewFailsGroup: a worker whose job-group answer does not fit the
// group — a cell index out of range, an index sent twice, a cell missing —
// runs another version of the wire format. The coordinator fails the
// group's cells terminally, without a retry and without marking the worker
// down, since any worker of that version would answer the same.
func TestCellSkewFailsGroup(t *testing.T) {
	cases := map[string]struct {
		// edit rewrites the payload of the k-th cell frame; nil drops it.
		edit func(k int, payload []byte) []byte
		want string
	}{
		"out of range": {func(_ int, p []byte) []byte { p[0] = 127; return p }, "returned cell index 127"},
		"repeated":     {func(_ int, p []byte) []byte { p[0] = 0; return p }, "returned cell index 0"},
		"missing": {func(k int, p []byte) []byte {
			if k == 0 {
				return nil
			}
			return p
		}, "returned 2 cells for a 3-seed group"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			coord, workers := newFleet(t, 1, nil)
			inner := workers[0].proxy.inner
			workers[0].proxy.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasPrefix(r.URL.Path, "/v1/jobgroups") {
					inner.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				if rec.Header().Get("Content-Type") == httpapi.GroupBinaryContentType {
					body = rewriteCells(t, body, tc.edit)
				}
				maps.Copy(w.Header(), rec.Header())
				w.WriteHeader(rec.Code)
				_, _ = w.Write(body)
			}))
			putGen(t, coord, "g", gnpSource(16, 0.2, 3, 40))
			v, err := coord.Batches().Submit(service.BatchSpec{
				Graphs: []string{"g"}, Algos: []string{"maxis"}, Seeds: []uint64{1, 2, 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			fin := waitBatch(t, coord, v.ID)
			for i, cell := range fin.Cells {
				if cell.State != service.Failed || !strings.Contains(cell.Error, tc.want) {
					t.Fatalf("cell %d: state %s, error %q; want failed with %q", i, cell.State, cell.Error, tc.want)
				}
			}
			if m := coord.Metrics(); m.CellRetries != 0 || m.WorkerFailures != 0 {
				t.Fatalf("retries=%d workerFailures=%d, want 0/0", m.CellRetries, m.WorkerFailures)
			}
		})
	}
}

// rewriteCells re-frames an RBS1 body, passing each cell frame's payload
// through edit (a cell payload starts with its index as a uvarint, one byte
// below 128) and dropping the frames edit returns nil for.
func rewriteCells(t *testing.T, body []byte, edit func(k int, payload []byte) []byte) []byte {
	t.Helper()
	const magic = len("RBS1")
	out := append([]byte(nil), body[:magic]...)
	frames := bytes.NewReader(body[magic:])
	for k := 0; frames.Len() > 0; {
		typ, payload, err := httpapi.ReadStreamFrame(frames)
		if err != nil {
			t.Fatal(err)
		}
		if typ == httpapi.StreamFrameCell {
			payload = edit(k, payload)
			k++
			if payload == nil {
				continue
			}
		}
		out = binary.BigEndian.AppendUint32(append(out, typ), uint32(len(payload)))
		out = append(out, payload...)
	}
	return out
}
