package service

// Batch ledger (DESIGN.md §8): when BatchConfig.WALDir is set, OpenBatches
// journals the batch lifecycle to an internal/wal log — one submit record
// per batch (synchronously committed before Submit returns), one cell record
// per terminal member, one terminal record per finished batch, one cancel
// record per cancellation — and replays it on boot. Incomplete batches are
// resumed: finished cells are restored from the log with their results (and
// never re-executed — the job counters of a resumed run prove it), unfinished
// cells are re-fed into the worker pool under their original derived trace
// IDs, so the finished batch is indistinguishable from an uninterrupted run.
//
// Writer discipline: terminal-cell and finalize events fire under the
// Service mutex, so they enqueue to a single writer goroutine without
// blocking (a full queue drops the record and counts it — a dropped cell
// record only costs a re-run after a crash, never correctness). Submit and
// Cancel commit synchronously: the writer group-commits everything queued
// behind one fsync and acks. The writer takes Batches.mu and batch.mu only —
// never the Service mutex — so it cannot deadlock with notifications.
//
// Snapshot safety: the writer may snapshot immediately after acking, and a
// snapshot supersedes the segments holding the records it just synced — so a
// synchronous committer MUST make its mutation visible to snapshot state
// (b.batches, bt.cancelReq) before committing, rolling back on commit
// failure. State applied only after the ack can end up in neither the
// snapshot nor any surviving segment, silently losing an acked operation.
//
// Snapshots are records too: one next-ID record (the batch counter, which
// keeps the IDs of evicted batches from being handed out again), then per
// retained batch its submit record, a cell record per settled cell, a cancel
// record if a cancel was requested and a terminal record if it finished. So
// OpenBatches replays the snapshot and the tail through one apply function,
// and replay is idempotent: submit records of known IDs, cell records for
// already-terminal cells, terminal/cancel records for already-terminal
// batches and unknown record types are skipped.

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/wal"
)

// Ledger WAL record types.
const (
	recBatchSubmit   = 1 // submitPayload
	recCellDone      = 2 // cellPayload
	recBatchTerminal = 3 // terminalPayload
	recBatchCancel   = 4 // cancelPayload
	recNextID        = 5 // nextIDPayload; written only into snapshots
)

type cellSpecRec struct {
	Graph  string          `json:"graph"`
	Algo   string          `json:"algo"`
	Params registry.Params `json:"params"`
}

type submitPayload struct {
	ID        string        `json:"id"`
	TraceID   string        `json:"trace"`
	Tenant    string        `json:"tenant,omitempty"`
	TimeoutNS int64         `json:"timeout_ns,omitempty"`
	Created   time.Time     `json:"created"`
	Cells     []cellSpecRec `json:"cells"`
}

type cellPayload struct {
	Batch    string           `json:"batch"`
	Index    int              `json:"i"`
	State    State            `json:"state"`
	JobID    string           `json:"job,omitempty"`
	CacheHit bool             `json:"cache_hit,omitempty"`
	Err      string           `json:"err,omitempty"`
	Result   *registry.Result `json:"result,omitempty"`
}

type terminalPayload struct {
	Batch    string     `json:"batch"`
	State    BatchState `json:"state"`
	Finished time.Time  `json:"finished"`
}

type cancelPayload struct {
	Batch string `json:"batch"`
}

// nextIDPayload carries the batch counter, the one piece of engine state no
// other record holds once retention has evicted the newest-numbered batch:
// it keeps evicted IDs from being handed out again.
type nextIDPayload struct {
	Next uint64 `json:"next"`
}

type ledgerReq struct {
	typ     byte
	payload any
	ack     chan error // nil for fire-and-forget records
}

// ledger is the async WAL writer. A nil *ledger is a valid no-op.
type ledger struct {
	log    *wal.Log
	every  int
	ch     chan ledgerReq
	quit   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	dropped        atomic.Uint64
	batchesResumed atomic.Uint64
	cellsRestored  atomic.Uint64
}

// errLedgerClosed refuses a commit once the ledger is closed; it wraps
// ErrClosed, a fault on the server's side rather than the request's.
var errLedgerClosed = fmt.Errorf("%w: batch ledger closed", ErrClosed)

// enqueue journals a record without blocking; callers may hold the Service
// mutex. A full channel drops the record: after a crash the affected cell
// re-runs, which is safe.
func (ld *ledger) enqueue(typ byte, payload any) {
	if ld == nil || ld.closed.Load() {
		return
	}
	select {
	case ld.ch <- ledgerReq{typ: typ, payload: payload}:
	default:
		ld.dropped.Add(1)
	}
}

// commit journals a record and blocks until it is fsynced. Callers must not
// hold any engine mutex.
func (ld *ledger) commit(typ byte, payload any) error {
	if ld == nil {
		return nil
	}
	if ld.closed.Load() {
		return errLedgerClosed
	}
	req := ledgerReq{typ: typ, payload: payload, ack: make(chan error, 1)}
	select {
	case ld.ch <- req:
	case <-ld.done:
		return errLedgerClosed
	}
	select {
	case err := <-req.ack:
		return err
	case <-ld.done:
		return errLedgerClosed
	}
}

// run is the writer goroutine: group-commit everything queued behind one
// fsync, ack the synchronous committers, snapshot on cadence.
func (ld *ledger) run(b *Batches) {
	defer close(ld.done)
	for {
		var first ledgerReq
		select {
		case first = <-ld.ch:
		case <-ld.quit:
			ld.drainAndStop()
			return
		}
		acks := ld.appendOne(first, nil)
		for drained := false; !drained; {
			select {
			case req := <-ld.ch:
				acks = ld.appendOne(req, acks)
			default:
				drained = true
			}
		}
		err := ld.log.Sync()
		for _, ack := range acks {
			ack <- err
		}
		if ld.every > 0 && ld.log.RecordsSinceSnapshot() >= uint64(ld.every) {
			if err := ld.snapshot(b); err != nil && !errors.Is(err, wal.ErrCrashed) {
				b.log.Warn("wal_snapshot_failed", "component", "batches", "err", err)
			}
		}
	}
}

func (ld *ledger) drainAndStop() {
	var acks []chan error
	for {
		select {
		case req := <-ld.ch:
			acks = ld.appendOne(req, acks)
		default:
			err := ld.log.Sync()
			for _, ack := range acks {
				ack <- err
			}
			return
		}
	}
}

func (ld *ledger) appendOne(req ledgerReq, acks []chan error) []chan error {
	data, err := json.Marshal(req.payload)
	if err == nil {
		err = ld.log.Append(req.typ, data)
	}
	if req.ack != nil {
		if err != nil {
			req.ack <- err
			return acks
		}
		return append(acks, req.ack)
	}
	if err != nil {
		ld.dropped.Add(1)
	}
	return acks
}

// snapshot compacts the log into the records that rebuild the engine: the
// batch counter, then per retained batch its submit record, one cell record
// per settled cell, a cancel record if a cancel was requested and a
// terminal record if it finished. It collects them behind the engine and
// batch mutexes (never the Service mutex) and marshals them off the locks:
// settled results are immutable.
func (ld *ledger) snapshot(b *Batches) error {
	b.mu.Lock()
	reqs := []ledgerReq{{typ: recNextID, payload: nextIDPayload{Next: b.nextID}}}
	bts := make([]*batch, 0, len(b.batches))
	for _, bt := range b.batches {
		bts = append(bts, bt)
	}
	b.mu.Unlock()
	for _, bt := range bts {
		reqs = bt.snapshotRecords(reqs)
	}
	records := make([]wal.Record, len(reqs))
	for i, req := range reqs {
		data, err := json.Marshal(req.payload)
		if err != nil {
			return err
		}
		records[i] = wal.Record{Type: req.typ, Data: data}
	}
	return ld.log.WriteSnapshot(records)
}

// snapshotRecords appends the records that rebuild bt to reqs.
func (bt *batch) snapshotRecords(reqs []ledgerReq) []ledgerReq {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	reqs = append(reqs, ledgerReq{typ: recBatchSubmit, payload: bt.submitRec()})
	for i := range bt.cells {
		if bt.cells[i].state.Terminal() {
			reqs = append(reqs, ledgerReq{typ: recCellDone, payload: bt.cellRecLocked(i)})
		}
	}
	if bt.cancelReq {
		reqs = append(reqs, ledgerReq{typ: recBatchCancel, payload: cancelPayload{Batch: bt.id}})
	}
	if bt.state.Terminal() {
		reqs = append(reqs, ledgerReq{typ: recBatchTerminal, payload: terminalPayload{Batch: bt.id, State: bt.state, Finished: bt.finished}})
	}
	return reqs
}

// submitRec is bt's submit record. Its fields never change once the batch
// is registered, so no lock is needed.
func (bt *batch) submitRec() submitPayload {
	p := submitPayload{
		ID: bt.id, TraceID: bt.traceID, Tenant: bt.tenant, TimeoutNS: int64(bt.timeout),
		Created: bt.created, Cells: make([]cellSpecRec, len(bt.specs)),
	}
	for i, c := range bt.specs {
		p.Cells[i] = cellSpecRec{Graph: c.Graph, Algo: c.Algo, Params: c.Params}
	}
	return p
}

// cellRecLocked is cell i's terminal record. Must be called with bt.mu held.
func (bt *batch) cellRecLocked(i int) cellPayload {
	ms := &bt.cells[i]
	return cellPayload{
		Batch: bt.id, Index: i, State: ms.state, JobID: ms.jobID,
		CacheHit: ms.cacheHit, Err: ms.err, Result: ms.result,
	}
}

// journalCellLocked records one member's terminal state. Must be called with
// bt.mu held (and possibly the Service mutex above it): enqueue never blocks.
func (bt *batch) journalCellLocked(i int) {
	if ld := bt.eng.ledger; ld != nil {
		ld.enqueue(recCellDone, bt.cellRecLocked(i))
	}
}

// LedgerMetrics reports the batch ledger's WAL counters plus resume stats.
type LedgerMetrics struct {
	wal.Metrics
	BatchesResumed uint64
	CellsRestored  uint64
	RecordsDropped uint64
}

// LedgerMetrics returns the ledger counters; ok is false when the engine was
// built without a WALDir.
func (b *Batches) LedgerMetrics() (LedgerMetrics, bool) {
	if b.ledger == nil {
		return LedgerMetrics{}, false
	}
	return LedgerMetrics{
		Metrics:        b.ledger.log.Metrics(),
		BatchesResumed: b.ledger.batchesResumed.Load(),
		CellsRestored:  b.ledger.cellsRestored.Load(),
		RecordsDropped: b.ledger.dropped.Load(),
	}, true
}

// OpenBatches is NewBatches plus durability: it replays cfg.WALDir, rebuilds
// every retained batch, restores finished cells with their results, re-pins
// the graphs of incomplete batches in st and re-feeds their unfinished cells
// into svc under the original batch and cell trace IDs. Batches whose graphs
// no longer exist in st resume with those cells failed rather than blocking
// recovery.
func OpenBatches(svc *Service, st *store.Store, cfg BatchConfig) (*Batches, error) {
	b := NewBatches(svc, st, cfg)
	if cfg.WALDir == "" {
		return b, nil
	}
	l, rec, err := wal.Open(cfg.WALDir, wal.Options{SegmentBytes: cfg.WALSegmentBytes, Hooks: cfg.WALHooks})
	if err != nil {
		return nil, err
	}
	b.ledger = &ledger{
		log:   l,
		every: cfg.SnapshotEvery,
		ch:    make(chan ledgerReq, 1024),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}

	for _, r := range slices.Concat(rec.Snapshot, rec.Records) {
		b.apply(r)
	}
	if len(b.batches) > 0 || rec.TornTail {
		b.log.Info("wal_replay",
			"component", "batches",
			"batches", len(b.batches),
			"records", len(rec.Records),
			"segments", rec.Segments,
			"torn_tail", rec.TornTail,
			"had_snapshot", rec.Snapshot != nil)
	}

	// Resume: everything above ran single-threaded. Collect first, oldest
	// ID first so the retention ring still evicts oldest first: a resumed
	// batch can finish at once (its cells all cache hits) and run
	// finalizeLocked, which appends to b.terminal and may delete from
	// b.batches under b.mu. resume itself must not run under b.mu (the lock
	// order is batch.mu → Batches.mu), so from the first resume on this loop
	// touches neither.
	var terminal []string
	var unfinished []*batch
	for _, bt := range b.batches {
		if bt.state.Terminal() {
			terminal = append(terminal, bt.id)
		} else {
			unfinished = append(unfinished, bt)
		}
	}
	slices.SortFunc(terminal, compareBatchIDs)
	slices.SortFunc(unfinished, func(x, y *batch) int { return compareBatchIDs(x.id, y.id) })
	// The log replays every submit since the last snapshot, including
	// batches retention had already evicted: evict them again, oldest first.
	if over := len(terminal) - b.cfg.MaxBatches; over > 0 {
		for _, id := range terminal[:over] {
			delete(b.batches, id)
		}
		terminal = terminal[over:]
	}
	for _, bt := range b.batches {
		b.cellCount.Add(uint64(len(bt.cells)))
	}
	b.terminal = terminal
	for _, bt := range unfinished {
		b.resume(bt)
	}
	go b.ledger.run(b)
	return b, nil
}

// compareBatchIDs orders "b%06d" IDs by number: a shorter ID is a smaller
// number once the counter outgrows six digits.
func compareBatchIDs(x, y string) int {
	if len(x) != len(y) {
		return len(x) - len(y)
	}
	return strings.Compare(x, y)
}

// apply replays one ledger record, from the snapshot or the tail alike.
// Replay is idempotent: a submit of a known ID, a cell record of a terminal
// cell, and cancel or terminal records of a finished batch are skipped, and
// so are malformed records and unknown types (a newer engine version's).
// Single-threaded (boot): no locks.
func (b *Batches) apply(r wal.Record) {
	switch r.Type {
	case recNextID:
		var p nextIDPayload
		if json.Unmarshal(r.Data, &p) == nil {
			b.nextID = max(b.nextID, p.Next)
		}
	case recBatchSubmit:
		var p submitPayload
		if json.Unmarshal(r.Data, &p) != nil || p.ID == "" || len(p.Cells) == 0 || b.batches[p.ID] != nil {
			return
		}
		specs := make([]BatchCell, len(p.Cells))
		for i, c := range p.Cells {
			specs[i] = BatchCell{Graph: c.Graph, Algo: c.Algo, Params: c.Params}
		}
		bt := b.newBatch(p.TraceID, p.Tenant, time.Duration(p.TimeoutNS), p.Created, specs)
		bt.id = p.ID
		b.batches[p.ID] = bt
		if n, err := strconv.ParseUint(p.ID[1:], 10, 64); err == nil {
			b.nextID = max(b.nextID, n)
		}
	case recCellDone:
		var p cellPayload
		if json.Unmarshal(r.Data, &p) != nil {
			return
		}
		bt := b.batches[p.Batch]
		if bt == nil || p.Index < 0 || p.Index >= len(bt.cells) || !p.State.Terminal() ||
			!bt.settleLocked(p.Index, CellOutcome{State: p.State, CacheHit: p.CacheHit, Error: p.Err, Result: p.Result}) {
			return
		}
		bt.cells[p.Index].jobID = p.JobID
		if p.JobID != "" {
			bt.submitted++
		}
		b.ledger.cellsRestored.Add(1)
	case recBatchTerminal:
		var p terminalPayload
		if json.Unmarshal(r.Data, &p) != nil {
			return
		}
		// No finalize bookkeeping: a batch that was already terminal
		// before boot holds no pins to release.
		if bt := b.batches[p.Batch]; bt != nil && !bt.state.Terminal() {
			bt.state = p.State
			bt.finished = p.Finished
			bt.stop()
			close(bt.doneCh)
		}
	case recBatchCancel:
		var p cancelPayload
		if json.Unmarshal(r.Data, &p) != nil {
			return
		}
		if bt := b.batches[p.Batch]; bt != nil && !bt.state.Terminal() {
			bt.cancelReq = true
		}
	}
}

// resume re-pins the graphs an incomplete batch still needs and restarts its
// executor. Cells whose graph is gone from the store fail at dispatch time.
func (b *Batches) resume(bt *batch) {
	graphs := make(map[string]*graph.Graph)
	pending := 0
	for i, c := range bt.specs {
		if bt.cells[i].state.Terminal() {
			continue
		}
		pending++
		if _, ok := graphs[c.Graph]; ok {
			continue
		}
		g, release, err := b.st.Acquire(c.Graph)
		if err != nil {
			b.log.Warn("batch_resume_graph_missing", "batch", bt.id, "graph", c.Graph, "err", err)
			graphs[c.Graph] = nil
			continue
		}
		graphs[c.Graph] = g
		bt.releases = append(bt.releases, release)
	}
	b.log.Info("batch_resumed",
		"batch", bt.id,
		"trace", bt.traceID,
		"restored", bt.terminal,
		"pending", pending)
	b.ledger.batchesResumed.Add(1)
	b.submittedCount.Add(1)
	b.start(bt, graphs)
}

// Close drains the ledger writer, writes a final snapshot and closes the
// WAL. Engines built without a WALDir close trivially. In-flight executors
// may still enqueue afterwards; those records land in the next boot's
// re-run of the affected cells.
func (b *Batches) Close() error {
	ld := b.ledger
	if ld == nil {
		return nil
	}
	if ld.closed.CompareAndSwap(false, true) {
		close(ld.quit)
	}
	<-ld.done
	snapErr := ld.snapshot(b)
	closeErr := ld.log.Close()
	if snapErr != nil && !errors.Is(snapErr, wal.ErrCrashed) {
		return snapErr
	}
	return closeErr
}
