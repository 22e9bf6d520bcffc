package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/stats"
)

// env is one set-up of a workload's stack plus the harness clients that
// drive it.
type env struct {
	w       *workload
	work    string // the run's scratch directory; set-up temp dirs go below it
	refs    map[string]*refGraph
	node    *node  // single-node workloads
	fleet   *fleet // fleet-sweep
	ct      *countingTransport
	clients []*httpapi.Client
	putMs   []float64
	dirs    []string
	tr      *tracer
	// The set-up's warm-up cells are verified too; their failures count
	// against the run like any other failed cell.
	setUpCells, setUpFailed int
	setUpErrs               []string
	// nextK is each client's request counter; it carries over between
	// phases so every phase's seeds stay fresh.
	nextK []int
}

func newEnv(work string, w *workload, in *inputs) *env {
	return &env{w: w, work: work, refs: in.refs, ct: newCountingTransport(), nextK: make([]int, w.clients)}
}

func (e *env) close() error {
	e.ct.close()
	var err error
	if e.node != nil {
		err = e.node.close()
	}
	if e.fleet != nil {
		err = e.fleet.close()
	}
	for _, d := range e.dirs {
		if rmErr := os.RemoveAll(d); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	return err
}

// warm runs one set-up request (hot-set or upload warm-up) and verifies its
// cells.
func (e *env) warm(ctx context.Context, req httpapi.BatchRequest, cells int) error {
	ph := newPhase(e, nil)
	err := ph.request(ctx, 0, req, cells, false)
	e.setUpCells += ph.attempted
	e.setUpFailed += ph.failed
	e.setUpErrs = append(e.setUpErrs, ph.errs...)
	return err
}

// phase is one timed phase: the closed-loop requests and everything
// measured about them. A phase with a tracer also rebuilds server spans from
// the public getters as each cell arrives.
type phase struct {
	env   *env
	tr    *tracer
	root  int
	start time.Time
	end   time.Time

	mu        sync.Mutex
	attempted int
	cells     int // verified cells delivered
	// rssCells, when positive, is the cell count at which peakMB is read.
	rssCells  int
	peakMB    float64
	failed    int
	errs      []string
	lat       []float64 // ms per request (interactive) or per cell, POST to receipt
	hitLat    []float64
	missLat   []float64
	submitMs  []float64
	firstCell []float64 // s from batch POST to its first cell
	// Exact engine counts over the fixed requests.
	rounds, messages, bits int64
	// Fold memo counters over live (engine-run) cells.
	memoHits, memoMisses uint64
	perWorker            map[int]int // fleet: delivered cells per worker
	replays              []replayCell

	// Traced-phase measurements.
	runS       map[string]float64 // Σ engine run seconds per algorithm
	runCells   map[string]int     // live cells per algorithm
	runTotal   time.Duration
	liveMsgs   int64
	runIvs     []interval
	queueMs    []float64
	lagMs      []float64
	groupEnd   map[string]time.Time
	workerIvs  map[int][]interval
	missingIDs int // cells whose server record was gone before it could be read
}

type replayCell struct {
	graph, algo string
	params      *httpapi.ParamsRequest
	result      *httpapi.JobResult
}

func newPhase(e *env, tr *tracer) *phase {
	return &phase{
		env: e, tr: tr, root: -1,
		perWorker: make(map[int]int),
		runS:      make(map[string]float64),
		runCells:  make(map[string]int),
		groupEnd:  make(map[string]time.Time),
		workerIvs: make(map[int][]interval),
	}
}

func (ph *phase) fail(cells int, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed += cells
	ph.note(err)
}

// note keeps the first few failure messages; must hold ph.mu.
func (ph *phase) note(err error) {
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// request runs one batch request end to end: POST it, stream its cells,
// verify each. It returns an error when the request itself failed; the
// failure is already counted.
func (ph *phase) request(ctx context.Context, c int, req httpapi.BatchRequest, cells int, fixed bool) error {
	client := ph.env.clients[c]
	ph.mu.Lock()
	ph.attempted += cells
	ph.mu.Unlock()
	t0 := time.Now()
	resp, err := client.SubmitBatch(ctx, req)
	t1 := time.Now()
	if err != nil {
		err = fmt.Errorf("submit: %w", err)
		ph.fail(cells, err)
		return err
	}
	reqSpan := ph.tr.add(spanRequest, resp.TraceID, ph.root, t0, t0)
	ph.tr.add(spanSubmit, resp.TraceID, reqSpan, t0, t1)
	ph.mu.Lock()
	ph.submitMs = append(ph.submitMs, ms(t1.Sub(t0)))
	ph.mu.Unlock()
	got := 0
	sum, err := client.StreamBatch(ctx, resp.ID, 0, func(cv httpapi.BatchCellView) error {
		got++
		ph.receive(cv, t0, time.Now(), got == 1, fixed, reqSpan)
		return nil
	})
	t2 := time.Now()
	ph.tr.add(spanStream, resp.TraceID, reqSpan, t1, t2)
	ph.tr.setEnd(reqSpan, t2)
	switch {
	case err != nil:
		err = fmt.Errorf("stream %s: %w", resp.ID, err)
	case got != cells:
		err = fmt.Errorf("batch %s streamed %d cells, want %d", resp.ID, got, cells)
	case sum.State != string(service.BatchDone) || sum.Done != cells:
		err = fmt.Errorf("batch %s ended %s with %d/%d done", resp.ID, sum.State, sum.Done, cells)
	}
	if err != nil {
		ph.fail(max(cells-got, 0), err)
	}
	return err
}

// receive handles one streamed cell.
func (ph *phase) receive(cv httpapi.BatchCellView, t0, at time.Time, first, fixed bool, parent int) {
	var err error
	ref := ph.env.refs[cv.Graph]
	switch {
	case cv.State != string(service.Done):
		err = fmt.Errorf("cell %d (%s on %s) ended %s: %s", cv.Index, cv.Algo, cv.Graph, cv.State, cv.Error)
	case ref == nil:
		err = fmt.Errorf("cell %d names unknown graph %q", cv.Index, cv.Graph)
	default:
		if vErr := ref.verify(cv.Algo, cv.Result); vErr != nil {
			err = fmt.Errorf("cell %d: %w", cv.Index, vErr)
		}
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if err != nil {
		ph.failed++
		ph.note(err)
		return
	}
	ph.cells++
	if ph.cells == ph.rssCells {
		ph.peakMB = float64(stats.PeakRSS()) / (1 << 20)
	}
	lat := ms(at.Sub(t0))
	ph.lat = append(ph.lat, lat)
	if first {
		ph.firstCell = append(ph.firstCell, at.Sub(t0).Seconds())
	}
	res := cv.Result
	if cv.CacheHit {
		ph.hitLat = append(ph.hitLat, lat)
	} else {
		ph.missLat = append(ph.missLat, lat)
		if res.Trace != nil {
			ph.memoHits += res.Trace.MemoHits
			ph.memoMisses += res.Trace.MemoMisses
		}
	}
	if fixed {
		ph.rounds += int64(res.Cost.Rounds)
		ph.messages += int64(res.Cost.Messages)
		ph.bits += int64(res.Cost.Bits)
	}
	wi, gid, isFleet := parseJobRef(cv.JobID)
	if isFleet {
		ph.perWorker[wi]++
	}
	if stride := ph.env.w.replayStride; fixed && stride > 0 && cv.Index%stride == 0 {
		ph.replays = append(ph.replays, replayCell{cv.Graph, cv.Algo, cv.Params, res})
	}
	if ph.tr == nil {
		return
	}
	switch {
	case isFleet:
		ph.groupSpans(cv, wi, gid, at, parent)
	case ph.env.node != nil:
		ph.jobSpans(cv, at, parent)
	}
	ph.tr.add(spanReceive, cv.TraceID, parent, at, time.Now())
}

// jobSpans rebuilds service.queue and service.run for a single-node cell
// from Service.Get; must hold ph.mu.
func (ph *phase) jobSpans(cv httpapi.BatchCellView, at time.Time, parent int) {
	jv, ok := ph.env.node.svc.Get(cv.JobID)
	if !ok {
		ph.missingIDs++
		return
	}
	ph.lagMs = append(ph.lagMs, ms(at.Sub(jv.FinishedAt)))
	if jv.CacheHit {
		return
	}
	ph.tr.add(spanQueue, cv.TraceID, parent, jv.SubmittedAt, jv.StartedAt)
	ph.tr.add(spanRun, cv.TraceID, parent, jv.StartedAt, jv.FinishedAt)
	run := jv.FinishedAt.Sub(jv.StartedAt)
	ph.runS[cv.Algo] += run.Seconds()
	ph.runCells[cv.Algo]++
	ph.runTotal += run
	ph.liveMsgs += int64(cv.Result.Cost.Messages)
	ph.runIvs = append(ph.runIvs, interval{jv.StartedAt, jv.FinishedAt})
	ph.queueMs = append(ph.queueMs, ms(jv.StartedAt.Sub(jv.SubmittedAt)))
}

// groupSpans rebuilds cluster.dispatch and cluster.worker_group for a fleet
// cell, once per dispatched group, from the worker's GetGroup and the
// coordinator's group_dispatch event; must hold ph.mu.
func (ph *phase) groupSpans(cv httpapi.BatchCellView, wi int, gid string, at time.Time, parent int) {
	f := ph.env.fleet
	end, seen := ph.groupEnd[cv.JobID]
	if !seen {
		gv, ok := f.workers[wi].svc.GetGroup(gid)
		if !ok || gv.FinishedAt.IsZero() {
			ph.missingIDs++
			return
		}
		gparent := parent
		if d, ok := f.log.dispatchedAt(f.urls[wi], gid); ok {
			gparent = ph.tr.add(spanDispatch, gv.TraceID, parent, d, at)
		}
		ph.tr.add(spanWorkerGroup, gv.TraceID, gparent, gv.SubmittedAt, gv.FinishedAt)
		ph.workerIvs[wi] = append(ph.workerIvs[wi], interval{gv.SubmittedAt, gv.FinishedAt})
		end = gv.FinishedAt
		ph.groupEnd[cv.JobID] = end
	}
	ph.lagMs = append(ph.lagMs, ms(at.Sub(end)))
}

// parseJobRef splits a coordinator cell's job reference "w<i>:<group>".
func parseJobRef(ref string) (int, string, bool) {
	w, gid, ok := strings.Cut(ref, ":")
	if !ok || !strings.HasPrefix(w, "w") {
		return 0, "", false
	}
	i, err := strconv.Atoi(w[1:])
	if err != nil {
		return 0, "", false
	}
	return i, gid, true
}

// drive runs the workload's closed loop: every client issues its next
// request once the previous one completed, until the phase has lasted
// `seconds`. The first failed request stops the phase.
func (ph *phase) drive(w *workload, in *inputs, seconds time.Duration) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ph.start = time.Now()
	ph.root = ph.tr.add(spanPhase, w.name, -1, ph.start, ph.start)
	until := ph.start.Add(seconds)
	errc := make(chan error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				if ctx.Err() != nil {
					return
				}
				k := ph.env.nextK[c]
				ph.env.nextK[c]++
				req, cells, fixed := w.next(in, c, k)
				if req.TraceID == "" {
					req.TraceID = fmt.Sprintf("%s-c%d-%06d", w.name, c, k)
				}
				if err := ph.request(ctx, c, req, cells, fixed); err != nil {
					errc <- err
					cancel()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	ph.tr.setEnd(ph.root, ph.end)
	close(errc)
	return errors.Join(collect(errc)...)
}

func collect(errc <-chan error) []error {
	var out []error
	for err := range errc {
		out = append(out, err)
	}
	return out
}

func (ph *phase) wall() time.Duration { return ph.end.Sub(ph.start) }

// attribute splits the traced phase's wall time among the layers; the root
// span is the window itself.
func (ph *phase) attribute() (map[string]time.Duration, time.Duration, error) {
	var spans []span
	for i, s := range ph.tr.snapshot() {
		if i != ph.root {
			spans = append(spans, s)
		}
	}
	return attribute(spans, ph.start, ph.end, attribution)
}

// counters is a snapshot of everything the phase reads as deltas.
type counters struct {
	cpu                            time.Duration
	mem                            runtime.MemStats
	transport                      transportCounts
	svc                            service.Metrics // summed over nodes
	walAppends, walBytes, walSyncs uint64
	coord                          httpapi.ClusterMetrics
}

func (e *env) snapshot() counters {
	c := counters{cpu: processCPU(), transport: e.ct.counts()}
	runtime.ReadMemStats(&c.mem)
	var nodes []*node
	if e.node != nil {
		nodes = append(nodes, e.node)
	}
	if e.fleet != nil {
		nodes = append(nodes, e.fleet.workers...)
		c.coord = e.fleet.coord.Metrics()
	}
	for _, n := range nodes {
		m := n.svc.Metrics()
		c.svc.BatchMembers += m.BatchMembers
		c.svc.BatchCacheHits += m.BatchCacheHits
		if lm, ok := n.batches.LedgerMetrics(); ok {
			c.walAppends += lm.AppendsTotal
			c.walBytes += lm.AppendedBytes
			c.walSyncs += lm.SyncsTotal
		}
		if wm, ok := n.st.WALMetrics(); ok {
			c.walAppends += wm.AppendsTotal
			c.walBytes += wm.AppendedBytes
			c.walSyncs += wm.SyncsTotal
		}
	}
	return c
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
