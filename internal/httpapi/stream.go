package httpapi

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// This file is the incremental batch-result stream (DESIGN.md §9): GET
// /v1/batches/{id}/stream emits each cell exactly once, in index order, as
// soon as it settles, instead of making clients poll whole-batch snapshots
// whose size grows with the batch. Two renderings share the endpoint:
//
//   - Server-Sent Events (default): "id: <index>" / "event: cell" / JSON
//     data lines, keepalive comments while cells run, and a final
//     "event: batch" summary. Works with curl -N and EventSource.
//   - Binary (Accept: application/x-repro-batchstream): an "RBS1" magic
//     then length-prefixed frames; cell payloads use the varint/bitset
//     codec from bincodec.go, the final batch summary is a JSON payload.
//     ~6× smaller than SSE for result-heavy cells. A job group's binary
//     answer (group.go) is the same body, so one reader, readStreamBody,
//     decodes both.
//
// Both renderings resume: Last-Event-ID (the SSE convention — the last cell
// index the client saw) or ?from= (the first index still wanted) restart a
// broken stream without re-sending settled cells. The cursor is ordinal, so
// a stream survives a server restart: the PR 9 ledger restores settled cells
// under the same indices and the handler replays them immediately.

// BatchStreamContentType negotiates the binary batch-result stream on
// GET /v1/batches/{id}/stream.
const BatchStreamContentType = "application/x-repro-batchstream"

// streamMagic brands a binary batch stream; the trailing 1 is the version.
const streamMagic = "RBS1"

// Stream frame types. A frame is one type byte, a 4-byte big-endian payload
// length, then the payload.
const (
	// StreamFrameKeepalive is an empty liveness frame sent while the next
	// cell is still running.
	StreamFrameKeepalive byte = 0
	// StreamFrameCell carries one settled cell in the binary cell codec.
	StreamFrameCell byte = 1
	// StreamFrameBatch carries the final summary, the batch or job group
	// header, as JSON (cells omitted — they were already sent) and ends the
	// body.
	StreamFrameBatch byte = 2
)

// maxStreamFrame bounds a frame payload a client will buffer; a settled
// cell for the largest admissible graph stays far below it.
const maxStreamFrame = 256 << 20

// frameChunk is the most ReadStreamFrame reserves for payload bytes that
// have not arrived yet.
const frameChunk = 32 << 10

// streamSlice is how long one server-side cell wait parks before emitting a
// keepalive. Short enough that client disconnects and proxy idle timeouts
// are noticed; long enough that an idle stream costs a few wakeups a minute.
const streamSlice = 10 * time.Second

// Cell-frame flag bits: which optional payloads follow.
const (
	sfCacheHit = 1 << iota
	sfError
	sfResult
	sfTrace
	sfParams
)

// handleStreamBatch serves GET /v1/batches/{id}/stream.
func handleStreamBatch(cfg *handlerConfig, batches *service.Batches, w http.ResponseWriter, r *http.Request) {
	t := tenantFrom(r)
	id := r.PathValue("id")
	v, ok := batches.Get(id)
	if !ok || !cfg.owns(r, v.Tenant) {
		writeError(w, service.ErrBatchNotFound)
		return
	}
	from := 0
	if s := r.URL.Query().Get("from"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeError(w, errors.New("bad from: want a non-negative cell index"))
			return
		}
		from = n
	} else if s := r.Header.Get("Last-Event-ID"); s != "" {
		last, err := strconv.Atoi(s)
		if err != nil || last < -1 {
			writeError(w, errors.New("bad Last-Event-ID: want the last received cell index"))
			return
		}
		from = last + 1
	}
	if from > v.Total {
		writeError(w, fmt.Errorf("from %d beyond batch of %d cells", from, v.Total))
		return
	}
	// Streams park a connection like ?wait= long-polls do and share the
	// same per-tenant bound; over it, clients get a fast 429 instead of the
	// server a goroutine pile-up.
	if !cfg.waiters.acquire(t) {
		w.Header().Set("Retry-After", "1")
		writeErrCode(w, http.StatusTooManyRequests, CodeRateLimited,
			"too many concurrent waiters; retry later")
		return
	}
	defer cfg.waiters.release(t)

	bin := strings.Contains(r.Header.Get("Accept"), BatchStreamContentType)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if bin {
		w.Header().Set("Content-Type", BatchStreamContentType)
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	}
	w.WriteHeader(http.StatusOK)
	if bin {
		if _, err := io.WriteString(w, streamMagic); err != nil {
			return
		}
	}
	flush()

	emitCell := func(i int, cv BatchCellView) error {
		if bin {
			return writeStreamFrame(w, StreamFrameCell, encodeStreamCell(cv))
		}
		data, err := json.Marshal(cv)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "id: %d\nevent: cell\ndata: %s\n\n", i, data)
		return err
	}
	emitKeepalive := func() error {
		if bin {
			return writeStreamFrame(w, StreamFrameKeepalive, nil)
		}
		_, err := io.WriteString(w, ": keepalive\n\n")
		return err
	}

	ctx := r.Context()
	for i := from; i < v.Total; i++ {
		for {
			if ctx.Err() != nil {
				return
			}
			// A cell frozen non-terminal in a terminal batch (cancel,
			// drain) is settled too, so the stream matches the terminal
			// GET exactly.
			cv, settled, ok := batches.WaitCell(ctx, id, i, streamSlice)
			if !ok {
				return // batch evicted mid-stream
			}
			if settled {
				if err := emitCell(i, cfg.cellWire(t, cv)); err != nil {
					return
				}
				flush()
				break
			}
			if err := emitKeepalive(); err != nil {
				return
			}
			flush()
		}
	}

	// All cells are out; wait for the batch itself to finalize, then close
	// with the summary (groups included, cells omitted).
	for {
		if ctx.Err() != nil {
			return
		}
		bv, ok := batches.Wait(ctx, id, streamSlice)
		if !ok {
			return
		}
		if bv.State.Terminal() {
			bv.Cells = nil // already streamed
			data, err := json.Marshal(cfg.batchResponse(t, bv))
			if err != nil {
				return
			}
			if bin {
				_ = writeStreamFrame(w, StreamFrameBatch, data)
			} else {
				_, _ = fmt.Fprintf(w, "event: batch\ndata: %s\n\n", data)
			}
			flush()
			return
		}
		if err := emitKeepalive(); err != nil {
			return
		}
		flush()
	}
}

// writeStreamFrame writes one length-prefixed frame.
func writeStreamFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadStreamFrame reads one frame from an RBS1 body (after the magic). It
// bounds the payload at maxStreamFrame and reserves memory only for bytes
// it has read, so a corrupt length prefix cannot force a huge allocation: a
// frame of up to frameChunk bytes costs one exact allocation, a longer one
// doubles its buffer as its bytes arrive.
func ReadStreamFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[1:])
	if size > maxStreamFrame {
		return 0, nil, fmt.Errorf("httpapi: stream frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	if n == 0 {
		return hdr[0], nil, nil
	}
	payload = make([]byte, min(n, frameChunk))
	read := 0
	for {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return 0, nil, err
		}
		if read = len(payload); read == n {
			return hdr[0], payload, nil
		}
		// Double what has arrived, up to the declared length: all the
		// buffers together stay under frameChunk plus four times the bytes
		// read.
		grown := make([]byte, min(n, 2*read))
		copy(grown, payload)
		payload = grown
	}
}

// encodeStreamCell renders one settled cell in the binary cell codec:
// index, graph/algo/job/trace strings, state and flag bytes, then the
// optional params/error/result payloads the flags announce. It can only
// fail on a state outside the lifecycle enum — a programming error — hence
// the panic, mirroring what writeJSON does on an unmarshalable value.
func encodeStreamCell(c BatchCellView) []byte {
	code, err := stateCode(c.State)
	if err != nil {
		panic(err)
	}
	var flags byte
	if c.CacheHit {
		flags |= sfCacheHit
	}
	if c.Error != "" {
		flags |= sfError
	}
	if c.Result != nil {
		flags |= sfResult
		if c.Result.Trace != nil {
			flags |= sfTrace
		}
	}
	if c.Params != nil {
		flags |= sfParams
	}
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(c.Index))
	buf = appendString(buf, c.Graph)
	buf = appendString(buf, c.Algo)
	buf = appendString(buf, c.JobID)
	buf = appendString(buf, c.TraceID)
	buf = append(buf, code, flags)
	if c.Params != nil {
		buf = appendF64(buf, c.Params.Eps)
		buf = binary.AppendVarint(buf, int64(c.Params.K))
		buf = appendF64(buf, c.Params.Delta)
		buf = appendString(buf, c.Params.MIS)
		buf = appendString(buf, c.Params.Model)
		buf = binary.AppendUvarint(buf, c.Params.Seed)
		var det byte
		if c.Params.DetColoring {
			det = 1
		}
		buf = append(buf, det)
	}
	if c.Error != "" {
		buf = appendString(buf, c.Error)
	}
	if c.Result != nil {
		buf = appendResult(buf, c.Result)
	}
	return buf
}

func appendF64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func (r *cellReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 8 {
		r.fail("truncated %s at offset %d", what, r.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// DecodeStreamCell parses a StreamFrameCell payload — the inverse of
// encodeStreamCell. It is exported for clients of the binary stream and is
// the fuzzing surface of the stream codec.
func DecodeStreamCell(data []byte) (BatchCellView, error) {
	r := &cellReader{data: data}
	c := BatchCellView{
		Index:   int(r.uvarint("index")),
		Graph:   r.str("graph"),
		Algo:    r.str("algo"),
		JobID:   r.str("job id"),
		TraceID: r.str("trace id"),
	}
	code := r.byte("state code")
	flags := r.byte("flags")
	if r.err == nil {
		if int(code) >= len(stateCodes) {
			r.fail("unknown state code %d", code)
		} else {
			c.State = stateCodes[code]
		}
	}
	// Refuse every encoding encodeStreamCell cannot produce, as the
	// primitives refuse overlong varints and set bitset padding, so a
	// decoded cell re-encodes to exactly its own bytes.
	if flags&^(sfCacheHit|sfError|sfResult|sfTrace|sfParams) != 0 || flags&(sfResult|sfTrace) == sfTrace {
		r.fail("bad flags %#x", flags)
	}
	c.CacheHit = flags&sfCacheHit != 0
	if flags&sfParams != 0 {
		p := &ParamsRequest{
			Eps:   r.f64("params eps"),
			K:     int(r.varint("params k")),
			Delta: r.f64("params delta"),
			MIS:   r.str("params mis"),
			Model: r.str("params model"),
			Seed:  r.uvarint("params seed"),
		}
		det := r.byte("params det_coloring")
		if det > 1 {
			r.fail("params det_coloring byte %d", det)
		}
		p.DetColoring = det == 1
		c.Params = p
	}
	if flags&sfError != 0 {
		if c.Error = r.str("cell error"); c.Error == "" {
			r.fail("empty cell error")
		}
	}
	if flags&sfResult != 0 {
		c.Result = readResult(r, flags&sfTrace != 0)
	}
	if r.err != nil {
		return BatchCellView{}, r.err
	}
	if r.off != len(data) {
		return BatchCellView{}, fmt.Errorf("httpapi: stream cell: %d trailing bytes", len(data)-r.off)
	}
	return c, nil
}

// StreamBatch consumes GET /v1/batches/{id}/stream from cell index `from`
// (0 streams the whole batch), invoking fn for each settled cell in index
// order and returning the final batch summary. It negotiates the compact
// binary stream and falls back to SSE by the response's Content-Type, so it
// works against both renderings. fn returning an error aborts the stream
// and surfaces that error. StreamBatch issues ONE request; callers wanting
// resume-on-disconnect loop around it, passing the next unseen index.
func (c *Client) StreamBatch(ctx context.Context, id string, from int, fn func(BatchCellView) error) (BatchResponse, error) {
	path := "/v1/batches/" + url.PathEscape(id) + "/stream"
	lastID := ""
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
		lastID = strconv.Itoa(from - 1)
	}
	resp, err := c.send(ctx, http.MethodGet, path, nil,
		"Accept", BatchStreamContentType+", text/event-stream", "Last-Event-ID", lastID)
	if err != nil {
		return BatchResponse{}, err
	}
	defer resp.Body.Close()
	if !strings.Contains(resp.Header.Get("Content-Type"), BatchStreamContentType) {
		return readSSEStream(resp.Body, fn)
	}
	var out BatchResponse
	if err := readStreamBody(resp.Body, fn, &out); err != nil {
		return BatchResponse{}, err
	}
	return out, nil
}

// readStreamBody reads an RBS1 body: the magic, then frames up to the
// summary frame. It hands each cell frame, decoded, to cell, skips
// keepalives and decodes the summary's JSON into summary — a BatchResponse
// for a batch stream, a JobGroupResponse for a job group's answer.
func readStreamBody(body io.Reader, cell func(BatchCellView) error, summary any) error {
	br := bufio.NewReader(body)
	var magic [len(streamMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if string(magic[:]) != streamMagic {
		return fmt.Errorf("httpapi: stream: bad magic (want %q)", streamMagic)
	}
	for {
		typ, payload, err := ReadStreamFrame(br)
		if err != nil {
			return err
		}
		switch typ {
		case StreamFrameKeepalive:
		case StreamFrameCell:
			cv, err := DecodeStreamCell(payload)
			if err != nil {
				return err
			}
			if err := cell(cv); err != nil {
				return err
			}
		case StreamFrameBatch:
			return json.Unmarshal(payload, summary)
		default:
			return fmt.Errorf("httpapi: stream: unknown frame type %d", typ)
		}
	}
}

func readSSEStream(body io.Reader, fn func(BatchCellView) error) (BatchResponse, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxStreamFrame)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			switch event {
			case "cell":
				var cv BatchCellView
				if err := json.Unmarshal([]byte(data), &cv); err != nil {
					return BatchResponse{}, err
				}
				if err := fn(cv); err != nil {
					return BatchResponse{}, err
				}
			case "batch":
				var out BatchResponse
				if err := json.Unmarshal([]byte(data), &out); err != nil {
					return BatchResponse{}, err
				}
				return out, nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"): // comment / keepalive
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil {
		return BatchResponse{}, err
	}
	return BatchResponse{}, errors.New("httpapi: batch stream ended without a batch summary")
}
