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
// Replay idempotence: submit records of known IDs, cell records for
// already-terminal cells, and terminal/cancel records for already-terminal
// batches are skipped; unknown record types are skipped.

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

// ledgerSnapshot is the full engine state: replaying it is equivalent to
// replaying every record that built it.
type ledgerSnapshot struct {
	NextID  uint64          `json:"next_id"`
	Batches []batchSnapshot `json:"batches"`
}

type batchSnapshot struct {
	Submit    submitPayload `json:"submit"`
	Done      []cellPayload `json:"done,omitempty"`
	State     BatchState    `json:"state"`
	CancelReq bool          `json:"cancel_req,omitempty"`
	Finished  time.Time     `json:"finished"`
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

// snapshot serializes the whole engine behind the engine and batch mutexes
// (never the Service mutex) and compacts the log.
func (ld *ledger) snapshot(b *Batches) error {
	b.mu.Lock()
	snap := ledgerSnapshot{NextID: b.nextID, Batches: make([]batchSnapshot, 0, len(b.batches))}
	bts := make([]*batch, 0, len(b.batches))
	for _, bt := range b.batches {
		bts = append(bts, bt)
	}
	b.mu.Unlock()
	for _, bt := range bts {
		snap.Batches = append(snap.Batches, bt.snapshotRec())
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	return ld.log.WriteSnapshot(data)
}

func (bt *batch) snapshotRec() batchSnapshot {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	rec := batchSnapshot{
		Submit: submitPayload{
			ID:        bt.id,
			TraceID:   bt.traceID,
			Tenant:    bt.tenant,
			TimeoutNS: int64(bt.timeout),
			Created:   bt.created,
			Cells:     make([]cellSpecRec, len(bt.cells)),
		},
		State:     bt.state,
		CancelReq: bt.cancelReq,
		Finished:  bt.finished,
	}
	for i, c := range bt.specs {
		rec.Submit.Cells[i] = cellSpecRec{Graph: c.Graph, Algo: c.Algo, Params: c.Params}
		if ms := &bt.cells[i]; ms.state.Terminal() {
			rec.Done = append(rec.Done, cellPayload{
				Batch: bt.id, Index: i, State: ms.state, JobID: ms.jobID,
				CacheHit: ms.cacheHit, Err: ms.err, Result: ms.result,
			})
		}
	}
	return rec
}

// journalCellLocked records one member's terminal state. Must be called with
// bt.mu held (and possibly the Service mutex above it): enqueue never blocks.
func (bt *batch) journalCellLocked(i int) {
	ld := bt.eng.ledger
	if ld == nil {
		return
	}
	ms := &bt.cells[i]
	ld.enqueue(recCellDone, cellPayload{
		Batch: bt.id, Index: i, State: ms.state, JobID: ms.jobID,
		CacheHit: ms.cacheHit, Err: ms.err, Result: ms.result,
	})
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

	if rec.Snapshot != nil {
		var snap ledgerSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, fmt.Errorf("service: corrupt ledger snapshot: %w", err)
		}
		b.nextID = snap.NextID
		for _, bs := range snap.Batches {
			bt := b.replaySubmit(bs.Submit)
			if bt == nil {
				continue
			}
			for _, c := range bs.Done {
				replayCell(bt, c)
			}
			bt.cancelReq = bs.CancelReq
			if bs.State.Terminal() {
				replayTerminal(bt, terminalPayload{Batch: bt.id, State: bs.State, Finished: bs.Finished})
			}
		}
	}
	for _, r := range rec.Records {
		switch r.Type {
		case recBatchSubmit:
			var p submitPayload
			if json.Unmarshal(r.Data, &p) == nil {
				b.replaySubmit(p)
			}
		case recCellDone:
			var p cellPayload
			if json.Unmarshal(r.Data, &p) == nil {
				if bt := b.batches[p.Batch]; bt != nil {
					replayCell(bt, p)
				}
			}
		case recBatchTerminal:
			var p terminalPayload
			if json.Unmarshal(r.Data, &p) == nil {
				if bt := b.batches[p.Batch]; bt != nil {
					replayTerminal(bt, p)
				}
			}
		case recBatchCancel:
			var p cancelPayload
			if json.Unmarshal(r.Data, &p) == nil {
				if bt := b.batches[p.Batch]; bt != nil && !bt.state.Terminal() {
					bt.cancelReq = true
				}
			}
		default:
			// Newer engine version's record: skip.
		}
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

// replaySubmit rebuilds one batch shell from its submit record; idempotent
// on duplicate IDs. Single-threaded (boot): no locks.
func (b *Batches) replaySubmit(p submitPayload) *batch {
	if p.ID == "" || len(p.Cells) == 0 {
		return nil
	}
	if bt, ok := b.batches[p.ID]; ok {
		return bt
	}
	specs := make([]BatchCell, len(p.Cells))
	for i, c := range p.Cells {
		specs[i] = BatchCell{Graph: c.Graph, Algo: c.Algo, Params: c.Params}
	}
	bt := b.newBatch(p.TraceID, p.Tenant, time.Duration(p.TimeoutNS), p.Created, specs)
	bt.id = p.ID
	b.batches[p.ID] = bt
	if n, err := strconv.ParseUint(p.ID[1:], 10, 64); err == nil && n > b.nextID {
		b.nextID = n
	}
	return bt
}

// replayCell restores one terminal member; idempotent on duplicates.
func replayCell(bt *batch, p cellPayload) {
	if p.Index < 0 || p.Index >= len(bt.cells) || !p.State.Terminal() ||
		!bt.settleLocked(p.Index, CellOutcome{State: p.State, CacheHit: p.CacheHit, Error: p.Err, Result: p.Result}) {
		return
	}
	bt.cells[p.Index].jobID = p.JobID
	if p.JobID != "" {
		bt.submitted++
	}
	bt.eng.ledger.cellsRestored.Add(1)
}

// replayTerminal finishes a replayed batch without re-running finalize
// bookkeeping (there are no pins to release on a batch that was already
// terminal before boot).
func replayTerminal(bt *batch, p terminalPayload) {
	if bt.state.Terminal() {
		return
	}
	bt.state = p.State
	bt.finished = p.Finished
	bt.stop()
	close(bt.doneCh)
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
