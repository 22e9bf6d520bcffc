package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wal"
)

// Batch errors surfaced to clients.
var (
	ErrBatchNotFound = errors.New("service: no such batch")
	ErrBatchFinished = errors.New("service: batch already finished")
	ErrBatchEmpty    = errors.New("service: batch expands to zero cells")
	ErrBatchTooLarge = errors.New("service: batch exceeds the cell cap")
)

// BatchConfig sizes the batch engine. Zero values select defaults.
type BatchConfig struct {
	// MaxCells bounds how many jobs one batch may expand into (default 4096).
	MaxCells int
	// MaxBatches bounds how many finished batches are retained for polling
	// (default 256); beyond it the oldest finished batches are evicted.
	MaxBatches int
	// WALDir, when non-empty, makes the batch engine durable: the batch
	// lifecycle is journaled there and incomplete batches resume on the next
	// boot (see ledger.go). New ignores this; use OpenBatches.
	WALDir string
	// SnapshotEvery compacts the ledger WAL after this many records (0 =
	// only the final snapshot written by Close).
	SnapshotEvery int
	// WALSegmentBytes overrides the WAL segment rotation size (testing).
	WALSegmentBytes int64
	// WALHooks injects crash points into the WAL (testing).
	WALHooks *wal.TestHooks
	// Logger receives the batch_submit / batch_done span events and, with
	// a WALDir, wal_replay / batch_resumed. Nil discards them.
	Logger *slog.Logger
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// BatchState is a batch lifecycle state.
type BatchState string

const (
	// BatchRunning means members are still being expanded or executed.
	BatchRunning BatchState = "running"
	// BatchDone means every member reached a terminal state without the
	// batch being canceled (individual members may still have failed).
	BatchDone BatchState = "done"
	// BatchCanceled means the batch was canceled; members that had already
	// finished keep their results.
	BatchCanceled BatchState = "canceled"
)

// Terminal reports whether a batch in this state will never change again.
func (s BatchState) Terminal() bool { return s == BatchDone || s == BatchCanceled }

// BatchCell is one fully-specified (graph, algorithm, params) run.
type BatchCell struct {
	// Graph names a graph registered in the store.
	Graph string
	// Algo names a registered algorithm.
	Algo string
	// Params configures the run; zero fields mean registry defaults.
	Params registry.Params
}

// BatchSpec describes a batch: either an explicit cell list, or a grid —
// stored graphs × algorithms × parameter axes — expanded into the cross
// product. An empty axis contributes the registry default. Cells and grid
// axes are mutually exclusive.
type BatchSpec struct {
	// Graphs names stored graphs (grid axis).
	Graphs []string
	// Algos names registered algorithms (grid axis).
	Algos []string
	// Eps, K, Delta, MIS and Seeds are parameter axes.
	Eps   []float64
	K     []int
	Delta []float64
	MIS   []string
	Seeds []uint64
	// Cells, when set, is the explicit expansion (no grid axes allowed).
	Cells []BatchCell
	// Timeout bounds each member job (0 = the service default).
	Timeout time.Duration
	// TraceID identifies the batch across tiers; cell i runs under the
	// derived child ID obs.ChildTraceID(TraceID, i). Empty means the engine
	// generates one at submit.
	TraceID string
	// Tenant is the submitting tenant's ID ("" = anonymous). It is
	// journaled with the batch, selects the fair-share lane for every
	// member job, and scopes visibility at the HTTP layer.
	Tenant string
}

// Expand returns the deterministic cell expansion of the spec: explicit
// cells verbatim, or the cross product iterated graph-major, seed-minor.
func (sp BatchSpec) Expand() ([]BatchCell, error) {
	gridSet := len(sp.Graphs)+len(sp.Algos)+len(sp.Eps)+len(sp.K)+
		len(sp.Delta)+len(sp.MIS)+len(sp.Seeds) > 0
	if len(sp.Cells) > 0 {
		if gridSet {
			return nil, errors.New("service: set either cells or grid axes, not both")
		}
		return slices.Clone(sp.Cells), nil
	}
	if len(sp.Graphs) == 0 {
		return nil, errors.New("service: batch needs at least one graph")
	}
	if len(sp.Algos) == 0 {
		return nil, errors.New("service: batch needs at least one algo")
	}
	eps := orZero(sp.Eps)
	ks := orZero(sp.K)
	deltas := orZero(sp.Delta)
	miss := orZero(sp.MIS)
	seeds := orZero(sp.Seeds)
	var cells []BatchCell
	for _, g := range sp.Graphs {
		for _, a := range sp.Algos {
			for _, e := range eps {
				for _, k := range ks {
					for _, d := range deltas {
						for _, m := range miss {
							for _, s := range seeds {
								cells = append(cells, BatchCell{
									Graph: g, Algo: a,
									Params: registry.Params{Eps: e, K: k, Delta: d, MIS: m, Seed: s},
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// orZero maps an empty axis to the single zero value (= registry default).
func orZero[T any](xs []T) []T {
	if len(xs) == 0 {
		return make([]T, 1)
	}
	return xs
}

// BatchCellView is the snapshot of one member run.
type BatchCellView struct {
	Index int
	// TraceID is the cell's derived trace ID
	// (obs.ChildTraceID(batch TraceID, Index)); it prefixes every log line
	// and worker-side job the cell produced, across retries.
	TraceID  string
	Graph    string
	Algo     string
	Params   registry.Params
	JobID    string
	State    State
	CacheHit bool
	Error    string
	Result   *registry.Result
}

// BatchGroup aggregates the done members of one grid cell — same graph,
// algorithm and parameters modulo seed — with summary statistics over the
// seeds, computed via internal/stats.
type BatchGroup struct {
	Graph  string
	Algo   string
	Params registry.Params // Seed zeroed: the group varies over it
	Runs   int
	Done   int
	Failed int
	// Rounds, Weight and Size summarize the done members; Messages
	// summarizes their total delivered-message counts.
	Rounds   stats.Summary
	Weight   stats.Summary
	Size     stats.Summary
	Messages stats.Summary
	// Trace folds the done members' RoundTraces into one group summary
	// (counts sum, peaks max); nil when no member carried a trace.
	Trace *obs.RoundTrace
}

// BatchView is an immutable snapshot of a batch.
type BatchView struct {
	ID         string
	TraceID    string
	Tenant     string
	State      BatchState
	Total      int
	Submitted  int // cells handed to the executor so far
	Done       int
	Failed     int
	Canceled   int
	CacheHits  int
	CreatedAt  time.Time
	FinishedAt time.Time
	Cells      []BatchCellView
	Groups     []BatchGroup // populated once the batch is terminal
}

// memberState is the mutable part of one cell's record.
type memberState struct {
	// jobID is the cell's dispatch reference (see BatchRun.Dispatched).
	jobID    string
	state    State
	cacheHit bool
	err      string
	result   *registry.Result
}

type batch struct {
	id      string
	traceID string
	tenant  string
	eng     *Batches
	timeout time.Duration
	specs   []BatchCell // the expansion; immutable
	// ctx is canceled once a cancel is acknowledged, and at the terminal
	// transition; the executor observes it.
	ctx  context.Context
	stop context.CancelFunc

	mu        sync.Mutex
	cells     []memberState
	state     BatchState
	cancelReq bool
	// cancelAcked records that some cancel commit was acknowledged: a
	// concurrent Cancel whose own commit failed must not roll cancelReq back
	// past an acked one.
	cancelAcked bool
	// executed is set once Execute has returned with every cell settled
	// or on its way to settling.
	executed  bool
	submitted int
	terminal  int
	done      int
	failed    int
	canceled  int
	cacheHits int
	created   time.Time
	finished  time.Time
	releases  []func()
	doneCh    chan struct{}
	// progress is closed and replaced on every cell-terminal transition so
	// streaming waiters (WaitCell) wake without polling.
	progress chan struct{}
	groups   []BatchGroup // aggregates, computed once after the terminal transition
}

// newBatch builds the record of a running batch over specs, every cell
// queued. The caller assigns the ID.
func (b *Batches) newBatch(trace, tenant string, timeout time.Duration, created time.Time, specs []BatchCell) *batch {
	ctx, stop := context.WithCancel(context.Background())
	bt := &batch{
		eng:      b,
		traceID:  trace,
		tenant:   tenant,
		timeout:  timeout,
		specs:    specs,
		ctx:      ctx,
		stop:     stop,
		cells:    make([]memberState, len(specs)),
		state:    BatchRunning,
		created:  created,
		doneCh:   make(chan struct{}),
		progress: make(chan struct{}),
	}
	for i := range bt.cells {
		bt.cells[i].state = Queued
	}
	return bt
}

// signalProgressLocked wakes streaming waiters after a cell's terminal
// transition. Must be called with bt.mu held.
func (bt *batch) signalProgressLocked() {
	if bt.progress != nil {
		close(bt.progress)
		bt.progress = make(chan struct{})
	}
}

// settleLocked records cell i's terminal outcome and counts it; a cell that
// is already terminal is left alone (false). Must be called with bt.mu held.
func (bt *batch) settleLocked(i int, o CellOutcome) bool {
	ms := &bt.cells[i]
	if ms.state.Terminal() {
		return false
	}
	ms.state, ms.cacheHit, ms.err, ms.result = o.State, o.CacheHit, o.Error, o.Result
	bt.terminal++
	switch o.State {
	case Done:
		bt.done++
	case Failed:
		bt.failed++
	case Canceled:
		bt.canceled++
	}
	if o.CacheHit {
		bt.cacheHits++
	}
	return true
}

// An Executor runs the cells of a Batches engine's batches. The engine owns
// the batch record and everything served from it (views, waits, cancel,
// retention, graph pins and the ledger); the executor only dispatches cells
// and reports back through the BatchRun. NewBatches runs cells as member
// jobs on a Service; the cluster coordinator dispatches them to its workers
// in job groups.
type Executor interface {
	// Execute dispatches every pending cell of r, recording each dispatch
	// with r.Dispatched and each outcome with r.Finish, possibly after
	// Execute has returned. It returns false when it stopped without
	// settling every cell (a draining service); the batch then stays
	// running for a WAL resume.
	Execute(r *BatchRun) bool
	// Cancel stops the in-flight dispatch ref, best-effort.
	Cancel(ref string)
}

// A BatchRun is a batch as its Executor sees it.
type BatchRun struct {
	ID      string
	TraceID string // cell i runs under obs.ChildTraceID(TraceID, i)
	Tenant  string
	Timeout time.Duration // per cell; 0 = the executor's default
	Cells   []BatchCell   // the expansion; read-only
	// Graphs maps the graph of every pending cell to its pinned copy; the
	// entry is nil when a resumed batch found its graph gone from the store.
	Graphs map[string]*graph.Graph
	// Pending lists the cells to dispatch in index order: all of them, bar
	// those a resumed batch restored from the ledger.
	Pending []int
	bt      *batch
}

// Context is canceled when the batch is canceled.
func (r *BatchRun) Context() context.Context { return r.bt.ctx }

// Dispatched records that cells idxs were handed out under ref, the handle
// Batches.Cancel passes back to Executor.Cancel: a job ID on a single node,
// "w<i>:<group>" on a coordinator. A cell's first dispatch counts toward
// Submitted; a later one (a retry) re-points a pending cell and
// leaves a settled one alone.
func (r *BatchRun) Dispatched(idxs []int, ref string) {
	bt := r.bt
	bt.mu.Lock()
	defer bt.mu.Unlock()
	for _, i := range idxs {
		ms := &bt.cells[i]
		if ms.jobID == "" {
			bt.submitted++
		} else if ms.state.Terminal() {
			continue
		}
		ms.jobID = ref
		if !ms.state.Terminal() {
			ms.state = Running
		}
	}
}

// CellOutcome is a cell's terminal state as its executor reports it.
type CellOutcome struct {
	State    State
	CacheHit bool
	Error    string
	Result   *registry.Result
}

// Finish records the outcomes of cells idxs (outs aligned with idxs). Cells
// already terminal keep their first outcome, so an executor that dispatches
// a cell more than once still merges at most one result per cell. It only
// takes batch locks and may be called under the Service mutex.
func (r *BatchRun) Finish(idxs []int, outs []CellOutcome) {
	bt := r.bt
	bt.mu.Lock()
	defer bt.mu.Unlock()
	for k, i := range idxs {
		if bt.settleLocked(i, outs[k]) {
			bt.journalCellLocked(i)
		}
	}
	bt.signalProgressLocked()
	bt.eng.finalizeLocked(bt)
}

// Batches is the batch engine: it expands BatchSpecs over graphs pinned in
// a store, hands the cells to its Executor, tracks per-batch progress, fans
// cancellation out to in-flight dispatches, and aggregates results per grid
// cell.
//
// Lock ordering: Service.mu → batch.mu → Batches.mu. Job notifications
// arrive under the Service mutex; the engine never calls into its executor
// while holding a batch lock, and holds Batches.mu only around its own maps.
type Batches struct {
	exec Executor
	st   *store.Store
	cfg  BatchConfig
	log  *slog.Logger

	mu       sync.Mutex
	batches  map[string]*batch
	terminal []string // finished batch IDs, oldest first, for eviction
	nextID   uint64
	// draining refuses every later Submit (CloseAdmission).
	draining bool

	// ledger is the durability journal, nil for engines built with
	// NewBatches or opened without a WALDir.
	ledger *ledger

	submittedCount atomic.Uint64
	doneCount      atomic.Uint64
	canceledCount  atomic.Uint64
	cellCount      atomic.Uint64
}

// BatchMetrics is a point-in-time snapshot of the batch engine's counters.
type BatchMetrics struct {
	BatchesSubmitted uint64 `json:"batches_submitted"`
	BatchesDone      uint64 `json:"batches_done"`
	BatchesCanceled  uint64 `json:"batches_canceled"`
	BatchCells       uint64 `json:"batch_cells"`
}

// NewBatches returns a batch engine that runs cells as jobs on svc over
// graphs in st.
func NewBatches(svc *Service, st *store.Store, cfg BatchConfig) *Batches {
	return NewBatchesWith(jobExecutor{svc, st}, st, cfg)
}

// NewBatchesWith returns a batch engine that runs cells with exec over
// graphs in st. The engine is not journaled; see OpenBatches.
func NewBatchesWith(exec Executor, st *store.Store, cfg BatchConfig) *Batches {
	cfg = cfg.withDefaults()
	return &Batches{
		exec:    exec,
		st:      st,
		cfg:     cfg,
		log:     cfg.Logger,
		batches: make(map[string]*batch),
	}
}

// Metrics returns a snapshot of the engine counters.
func (b *Batches) Metrics() BatchMetrics {
	return BatchMetrics{
		BatchesSubmitted: b.submittedCount.Load(),
		BatchesDone:      b.doneCount.Load(),
		BatchesCanceled:  b.canceledCount.Load(),
		BatchCells:       b.cellCount.Load(),
	}
}

// prepareBatch is the submission prologue: expand the spec, bound it by
// maxCells, validate every cell's algorithm and params up front (so a bad
// grid fails fast rather than as a pile of failed cells), and pin every
// distinct graph once in st. On success the caller owns the releases — one
// per distinct graph — and must run them all when the batch ends; on error
// nothing stays pinned.
func prepareBatch(st *store.Store, spec BatchSpec, maxCells int) ([]BatchCell, map[string]*graph.Graph, []func(), error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, nil, nil, err
	}
	if len(cells) == 0 {
		return nil, nil, nil, ErrBatchEmpty
	}
	if len(cells) > maxCells {
		return nil, nil, nil, fmt.Errorf("%w: %d cells, cap %d", ErrBatchTooLarge, len(cells), maxCells)
	}
	for i, c := range cells {
		spec, ok := registry.Get(c.Algo)
		if !ok {
			return nil, nil, nil, fmt.Errorf("service: cell %d: unknown algorithm %q", i, c.Algo)
		}
		if err := spec.Validate(c.Params); err != nil {
			return nil, nil, nil, fmt.Errorf("service: cell %d: %w", i, err)
		}
	}
	graphs := make(map[string]*graph.Graph)
	var releases []func()
	for _, c := range cells {
		if _, ok := graphs[c.Graph]; ok {
			continue
		}
		g, release, err := st.Acquire(c.Graph)
		if err != nil {
			for _, r := range releases {
				r()
			}
			return nil, nil, nil, err
		}
		graphs[c.Graph] = g
		releases = append(releases, release)
	}
	return cells, graphs, releases, nil
}

// Submit validates and launches a batch: the spec is expanded, every
// referenced graph is pinned in the store for the batch's lifetime, and the
// cells are handed to the executor in the background. The returned view
// reflects the batch at expansion time; poll Get or Wait for progress.
// After CloseAdmission it refuses with ErrDraining and pins nothing.
func (b *Batches) Submit(spec BatchSpec) (BatchView, error) {
	cells, graphs, releases, err := prepareBatch(b.st, spec, b.cfg.MaxCells)
	if err != nil {
		return BatchView{}, err
	}

	trace := spec.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	bt := b.newBatch(trace, spec.Tenant, spec.Timeout, time.Now(), cells)
	bt.releases = releases

	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		for _, release := range releases {
			release()
		}
		return BatchView{}, ErrDraining
	}
	b.nextID++
	bt.id = fmt.Sprintf("b%06d", b.nextID)
	// Visible before acked: the batch must be in b.batches before the commit
	// ack is delivered, because the writer goroutine snapshots b.batches right
	// after acking and the snapshot supersedes the segment holding the submit
	// record — a batch registered only after the ack could land in neither. An
	// unacked batch surviving a crash is fine (the record could be durable
	// anyway); an acked batch lost is not.
	b.batches[bt.id] = bt
	b.mu.Unlock()

	// Durable before fed: the submit record is fsynced before any cell runs,
	// so every later cell record replays against a known batch. A failed
	// commit (crashed log) rolls the registration back and burns the ID.
	if b.ledger != nil {
		if err := b.ledger.commit(recBatchSubmit, bt.submitRec()); err != nil {
			b.mu.Lock()
			delete(b.batches, bt.id)
			b.mu.Unlock()
			for _, release := range releases {
				release()
			}
			return BatchView{}, err
		}
	}
	b.submittedCount.Add(1)
	b.cellCount.Add(uint64(len(cells)))
	b.log.Info("batch submitted", "event", "batch_submit",
		"batch", bt.id, "trace", trace, "tenant", bt.tenant, "cells", len(cells))

	b.start(bt, graphs)
	return bt.view(), nil
}

// CloseAdmission refuses every later Submit with ErrDraining: the first
// step of a graceful drain, on a single node and a coordinator alike. The
// check shares the lock that registers a batch, so every batch Submit
// accepted is registered, and visible to List, before CloseAdmission
// returns; those run on.
func (b *Batches) CloseAdmission() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
}

// start hands the batch's pending cells to the executor on a goroutine of
// their own. Once Execute returns having settled them, the batch finalizes
// with its last cell.
func (b *Batches) start(bt *batch, graphs map[string]*graph.Graph) {
	r := &BatchRun{
		ID: bt.id, TraceID: bt.traceID, Tenant: bt.tenant, Timeout: bt.timeout,
		Cells: bt.specs, Graphs: graphs, bt: bt,
	}
	bt.mu.Lock()
	for i := range bt.cells {
		if !bt.cells[i].state.Terminal() {
			r.Pending = append(r.Pending, i)
		}
	}
	bt.mu.Unlock()
	go func() {
		if !b.exec.Execute(r) {
			return
		}
		bt.mu.Lock()
		bt.executed = true
		b.finalizeLocked(bt)
		bt.mu.Unlock()
	}()
}

// finalizeLocked transitions the batch to its terminal state once every cell
// is terminal and the executor has returned, releases its pins, and evicts
// the oldest finished batches beyond the retention bound. Must be called
// with bt.mu held.
func (b *Batches) finalizeLocked(bt *batch) {
	if bt.state.Terminal() || !bt.executed || bt.terminal < len(bt.cells) {
		return
	}
	if bt.cancelReq {
		bt.state = BatchCanceled
		b.canceledCount.Add(1)
	} else {
		bt.state = BatchDone
		b.doneCount.Add(1)
	}
	bt.finished = time.Now()
	if b.ledger != nil {
		b.ledger.enqueue(recBatchTerminal, terminalPayload{Batch: bt.id, State: bt.state, Finished: bt.finished})
	}
	for _, release := range bt.releases {
		release()
	}
	bt.releases = nil
	bt.stop()
	close(bt.doneCh)
	b.mu.Lock()
	b.terminal = append(b.terminal, bt.id)
	for len(b.terminal) > b.cfg.MaxBatches {
		delete(b.batches, b.terminal[0])
		b.terminal = b.terminal[1:]
	}
	b.mu.Unlock()
	// Logged off the lock: finalize can run under the Service mutex.
	go b.log.Info("batch finished", "event", "batch_done",
		"batch", bt.id, "trace", bt.traceID, "tenant", bt.tenant, "state", string(bt.state),
		"done", bt.done, "failed", bt.failed, "canceled", bt.canceled,
		"duration", bt.finished.Sub(bt.created))
}

// Get returns a snapshot of the batch with the given ID.
func (b *Batches) Get(id string) (BatchView, bool) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchView{}, false
	}
	return bt.view(), true
}

// List returns a snapshot of every retained batch, oldest first. The
// snapshots carry no cells or groups — fetch a batch by ID for detail.
func (b *Batches) List() []BatchView {
	b.mu.Lock()
	bts := make([]*batch, 0, len(b.batches))
	for _, bt := range b.batches {
		bts = append(bts, bt)
	}
	b.mu.Unlock()
	slices.SortFunc(bts, func(x, y *batch) int { return strings.Compare(x.id, y.id) })
	out := make([]BatchView, len(bts))
	for i, bt := range bts {
		out[i] = bt.summary()
	}
	return out
}

// Cancel stops a running batch: cells not yet dispatched are dropped,
// in-flight dispatches are canceled best-effort through the executor, and
// already finished cells keep their results. Finished batches return
// ErrBatchFinished.
func (b *Batches) Cancel(id string) (BatchView, error) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchView{}, ErrBatchNotFound
	}
	bt.mu.Lock()
	if bt.state.Terminal() {
		bt.mu.Unlock()
		return bt.view(), ErrBatchFinished
	}
	// Effective before acked, like Submit's registration: cancelReq must be
	// set before the commit ack, because the writer snapshots right after
	// acking and the snapshot supersedes the cancel record's segment — a flag
	// raised only after the ack could be recorded nowhere, resurrecting an
	// acknowledged-canceled batch as running after a crash. Rolled back if the
	// commit fails (and no other Cancel's commit was acked meanwhile).
	prev := bt.cancelReq
	bt.cancelReq = true
	bt.mu.Unlock()
	if err := b.ledger.commit(recBatchCancel, cancelPayload{Batch: id}); err != nil {
		bt.mu.Lock()
		if !prev && !bt.cancelAcked {
			bt.cancelReq = false
		}
		bt.mu.Unlock()
		return BatchView{}, err
	}
	bt.mu.Lock()
	bt.cancelReq = true // re-assert past any concurrent failed Cancel's rollback
	bt.cancelAcked = true
	// Stop the executor under the lock that Dispatched takes: a dispatch
	// recorded after this point sees the canceled context and chases its own
	// ref, every earlier one is collected below.
	bt.stop()
	if bt.state.Terminal() {
		// cancelReq was raised before the first terminal check released bt.mu,
		// so any terminal transition since then saw the flag and finalized the
		// batch as canceled. That is this cancel succeeding, not
		// ErrBatchFinished.
		bt.mu.Unlock()
		return bt.view(), nil
	}
	var refs []string
	seen := make(map[string]bool)
	for i := range bt.cells {
		// Grouped cells share one ref per dispatch: cancel each once.
		if ms := &bt.cells[i]; ms.jobID != "" && !ms.state.Terminal() && !seen[ms.jobID] {
			seen[ms.jobID] = true
			refs = append(refs, ms.jobID)
		}
	}
	bt.mu.Unlock()
	// Fan out with no batch lock held: each member's terminal notification
	// re-takes bt.mu.
	for _, ref := range refs {
		b.exec.Cancel(ref)
	}
	return bt.view(), nil
}

// Wait blocks until the batch is terminal, d has elapsed (d <= 0 returns
// immediately) or ctx is done, then returns the current snapshot — the
// long-poll primitive behind GET /v1/batches/{id}?wait=.
func (b *Batches) Wait(ctx context.Context, id string, d time.Duration) (BatchView, bool) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchView{}, false
	}
	if d > 0 {
		t := time.NewTimer(d)
		select {
		case <-bt.doneCh:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	return bt.view(), true
}

// WaitCell blocks until cell index of batch id is settled, d elapses or ctx
// is done, then returns the cell's snapshot and whether it is settled — the
// per-cell long-poll primitive behind the streaming endpoint
// GET /v1/batches/{id}/stream. A settled cell is terminal, or frozen in a
// terminal batch. The last result is false when the batch or the index does
// not exist. An unsettled snapshot means "still running": callers emit a
// keepalive and wait again.
func (b *Batches) WaitCell(ctx context.Context, id string, index int, d time.Duration) (cv BatchCellView, settled, ok bool) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchCellView{}, false, false
	}
	deadline := time.Now().Add(d)
	for {
		bt.mu.Lock()
		if index < 0 || index >= len(bt.cells) {
			bt.mu.Unlock()
			return BatchCellView{}, false, false
		}
		cv = bt.cellViewLocked(index)
		// A resumed-then-terminal batch can hold non-terminal cells (their
		// records were dropped before the crash); batch-terminal settles the
		// wait so streams converge on exactly what the terminal GET shows.
		settled = cv.State.Terminal() || bt.state.Terminal()
		progress := bt.progress
		doneCh := bt.doneCh
		bt.mu.Unlock()
		remain := time.Until(deadline)
		if settled || remain <= 0 || ctx.Err() != nil {
			return cv, settled, true
		}
		t := time.NewTimer(remain)
		select {
		case <-progress:
		case <-doneCh:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// summary is view without the cell and group detail: cheap enough for
// listings over large retained batches.
func (bt *batch) summary() BatchView {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return BatchView{
		ID:         bt.id,
		TraceID:    bt.traceID,
		Tenant:     bt.tenant,
		State:      bt.state,
		Total:      len(bt.cells),
		Submitted:  bt.submitted,
		Done:       bt.done,
		Failed:     bt.failed,
		Canceled:   bt.canceled,
		CacheHits:  bt.cacheHits,
		CreatedAt:  bt.created,
		FinishedAt: bt.finished,
	}
}

func (bt *batch) view() BatchView {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	v := BatchView{
		ID:         bt.id,
		TraceID:    bt.traceID,
		Tenant:     bt.tenant,
		State:      bt.state,
		Total:      len(bt.cells),
		Submitted:  bt.submitted,
		Done:       bt.done,
		Failed:     bt.failed,
		Canceled:   bt.canceled,
		CacheHits:  bt.cacheHits,
		CreatedAt:  bt.created,
		FinishedAt: bt.finished,
		Cells:      make([]BatchCellView, len(bt.cells)),
	}
	for i := range bt.cells {
		v.Cells[i] = bt.cellViewLocked(i)
	}
	if bt.state.Terminal() {
		// Cells are immutable once the batch is terminal; aggregate once
		// and reuse across polls (computed lazily here, not in
		// finalizeLocked, which can run under the Service mutex).
		if bt.groups == nil {
			bt.groups = groupCells(v.Cells)
		}
		v.Groups = bt.groups
	}
	return v
}

// cellViewLocked snapshots one member. Must be called with bt.mu held.
func (bt *batch) cellViewLocked(i int) BatchCellView {
	ms, c := &bt.cells[i], bt.specs[i]
	return BatchCellView{
		Index:    i,
		TraceID:  obs.ChildTraceID(bt.traceID, i),
		Graph:    c.Graph,
		Algo:     c.Algo,
		Params:   c.Params,
		JobID:    ms.jobID,
		State:    ms.state,
		CacheHit: ms.cacheHit,
		Error:    ms.err,
		Result:   ms.result,
	}
}

// groupCells aggregates terminal cells by (graph, algo, params modulo seed),
// in first-seen order, summarizing rounds, weight and solution size over the
// done members of each group.
func groupCells(cells []BatchCellView) []BatchGroup {
	type acc struct {
		group                          *BatchGroup
		rounds, weight, size, messages []float64
		trace                          obs.RoundTrace
		traced                         bool
	}
	var order []string
	accs := make(map[string]*acc)
	for _, c := range cells {
		key := GroupKey(c.Graph, c.Algo, c.Params)
		a, ok := accs[key]
		if !ok {
			p := c.Params
			p.Seed = 0
			a = &acc{group: &BatchGroup{Graph: c.Graph, Algo: c.Algo, Params: p}}
			accs[key] = a
			order = append(order, key)
		}
		a.group.Runs++
		switch c.State {
		case Done:
			a.group.Done++
			a.rounds = append(a.rounds, float64(c.Result.Cost.Rounds))
			a.weight = append(a.weight, float64(c.Result.Weight))
			a.size = append(a.size, float64(c.Result.Size()))
			a.messages = append(a.messages, float64(c.Result.Cost.Messages))
			if t := c.Result.Trace; t != nil {
				a.trace.Add(*t)
				a.traced = true
			}
		case Failed:
			a.group.Failed++
		}
	}
	out := make([]BatchGroup, 0, len(order))
	for _, key := range order {
		a := accs[key]
		a.group.Rounds = stats.Summarize(a.rounds)
		a.group.Weight = stats.Summarize(a.weight)
		a.group.Size = stats.Summarize(a.size)
		a.group.Messages = stats.Summarize(a.messages)
		if a.traced {
			t := a.trace
			a.group.Trace = &t
		}
		out = append(out, *a.group)
	}
	return out
}

// GroupKey is the seedless grouping key of a cell: its graph and the cache
// key of its parameters with the seed zeroed. A batch's result groups and
// the cluster coordinator's dispatch groups both bucket cells by it. Cells
// are validated before they are grouped, so the fallback for an
// unregistered algorithm only keeps the key well defined.
func GroupKey(graph, algo string, p registry.Params) string {
	p.Seed = 0
	if spec, ok := registry.Get(algo); ok {
		return graph + "|" + spec.CacheKey(p)
	}
	return graph + "|" + algo
}

// jobExecutor is the single-node Executor: each cell becomes a member job
// on the Service, and a cell's dispatch ref is its job ID.
type jobExecutor struct {
	svc *Service
	st  *store.Store
}

func (e jobExecutor) Cancel(ref string) { _, _ = e.svc.Cancel(ref) }

// Execute feeds the pending cells to the job engine one by one, backing off
// while the queue is full, and settles the cells it can no longer submit
// (cancel, shutdown) itself. A draining service stops the feed without
// settling the rest: they were never handed to the engine, so the WAL resume
// after restart re-feeds them.
func (e jobExecutor) Execute(r *BatchRun) bool {
	ctx := r.Context()
	closed := false
	// The store hashed every graph when it was put: read its fingerprint
	// rather than hashing the graph again for every cell.
	fps := make(map[string]string, len(r.Graphs))
	for name := range r.Graphs {
		info, _ := e.st.Get(name) // pinned: the binding cannot change under us
		fps[name] = info.Fingerprint
	}
	for _, i := range r.Pending {
		cell := r.Cells[i]
		out := CellOutcome{State: Failed}
		switch g := r.Graphs[cell.Graph]; {
		case closed:
			out.Error = ErrClosed.Error()
		case ctx.Err() != nil:
			out.State = Canceled
		case g == nil:
			// Resume found the graph gone from the store; the cell fails,
			// the batch still finishes.
			out.Error = fmt.Sprintf("%s: %q", store.ErrNotFound, cell.Graph)
		default:
			v, err := e.submit(r, i, fps[cell.Graph], Request{
				Algo:    cell.Algo,
				Graph:   g,
				Params:  cell.Params,
				Timeout: r.Timeout,
				TraceID: obs.ChildTraceID(r.TraceID, i),
				Tenant:  r.Tenant,
			})
			switch {
			case err == nil:
				r.Dispatched([]int{i}, v.ID)
				if ctx.Err() != nil {
					// A cancel raced the submission and its fan-out missed
					// this job; chase it down.
					_, _ = e.svc.Cancel(v.ID)
				}
				continue
			case errors.Is(err, ErrDraining):
				return false
			case ctx.Err() != nil:
				out.State = Canceled
			default: // shutdown or a validation surprise; the batch goes on
				closed = errors.Is(err, ErrClosed)
				out.Error = err.Error()
			}
		}
		r.Finish([]int{i}, []CellOutcome{out})
	}
	return true
}

// submit hands cell i to the job engine, retrying while the queue is full
// unless the batch is canceled meanwhile: a saturated queue must not keep a
// canceled batch (and its graph pins) alive.
func (e jobExecutor) submit(r *BatchRun, i int, fp string, req Request) (JobView, error) {
	notify := func(v JobView) {
		// A cell can settle inside svc.submit (a cache hit, or a job that
		// finishes first): record its job ID before Finish journals it.
		r.Dispatched([]int{i}, v.ID)
		r.Finish([]int{i}, []CellOutcome{{State: v.State, CacheHit: v.CacheHit, Error: v.Error, Result: v.Result}})
	}
	for {
		v, err := e.svc.submit(req, fp, notify)
		if !errors.Is(err, ErrQueueFull) || r.Context().Err() != nil {
			return v, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}
