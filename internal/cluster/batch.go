package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
)

// The batch lifecycle — the record, its views and waits, cancel, retention
// and graph pins — is service.Batches, shared with the single-node engine.
// This file is the coordinator's side of it: admission, and the dispatcher
// that runs a batch's cells on the fleet.

// Drain stops admission (Batches().Submit returns service.ErrDraining) and
// waits up to timeout for in-flight batches to finish on their workers. It
// returns true when every accepted batch reached a terminal state in time;
// on false the caller should fall through to Close, which cancels the
// stragglers. Unlike Close it never cancels work: groups already dispatched
// keep running, so a SIGTERM during a sweep loses no finished results.
func (c *Coordinator) Drain(timeout time.Duration) bool {
	c.b.CloseAdmission()
	return c.settle(timeout)
}

// settle waits up to timeout for every retained batch to reach a terminal
// state and reports whether all did.
func (c *Coordinator) settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for _, v := range c.b.List() {
		if v.State.Terminal() {
			continue
		}
		if v, ok := c.b.Wait(context.Background(), v.ID, time.Until(deadline)); ok && !v.State.Terminal() {
			return false
		}
	}
	return true
}

// dispatcher is the coordinator's service.Executor.
type dispatcher struct{ *Coordinator }

// Execute packs the batch's cells into job groups and runs each on its own
// goroutine, gated by the target worker's window; it returns once every
// group has settled its cells.
func (d dispatcher) Execute(r *service.BatchRun) bool {
	graphs := make(map[string]*pinnedGraph, len(r.Graphs))
	for name, g := range r.Graphs {
		info, _ := d.st.Get(name) // pinned: the binding cannot change under us
		graphs[name] = &pinnedGraph{g: g, fp: info.Fingerprint}
	}
	var wg sync.WaitGroup
	for _, dg := range d.groupBatch(r) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.runGroup(r, graphs[dg.graphName], dg)
		}()
	}
	wg.Wait()
	return true
}

// Cancel is the batch cancel hook: ref names a worker-side job group as
// "w<i>:<group>", and that group is canceled best-effort.
func (d dispatcher) Cancel(ref string) {
	wid, gid, _ := strings.Cut(ref, ":")
	if i, err := strconv.Atoi(strings.TrimPrefix(wid, "w")); err == nil && i >= 0 && i < len(d.workers) {
		_, _ = d.workers[i].client.CancelJobGroup(context.Background(), gid)
	}
}

// errWorkerDown reports that a dispatch target was marked down while the
// group waited on its window slot — re-place without recording a new failure.
var errWorkerDown = errors.New("cluster: worker went down before dispatch")

// isQueueFull matches the worker's queue-saturation rejection, which is
// retryable on the same worker (unlike every other 5xx).
func isQueueFull(err error) bool {
	var apiErr *httpapi.APIError
	return errors.As(err, &apiErr) && apiErr.Code == httpapi.CodeQueueFull
}

// dgroup is one grouped dispatch unit: up to Config.GroupSize cells sharing
// a graph and a seed-independent parameter point, shipped to a worker as a
// single job group (one graph lookup, one submit, one long-poll per wait).
type dgroup struct {
	idxs      []int    // batch cell indices, in expansion order
	seeds     []uint64 // aligned with idxs
	graphName string
	algo      string
	base      registry.Params
}

// groupBatch partitions a batch's cells into dispatch groups: cells agreeing
// on service.GroupKey (graph and every seed-independent parameter, the key
// of the batch's result groups) ride together, chunked at Config.GroupSize
// so one straggling group cannot serialize an entire seed axis.
func (c *Coordinator) groupBatch(r *service.BatchRun) []*dgroup {
	var out []*dgroup
	open := make(map[string]*dgroup)
	for _, i := range r.Pending {
		cell := r.Cells[i]
		key := service.GroupKey(cell.Graph, cell.Algo, cell.Params)
		g := open[key]
		if g == nil || len(g.idxs) >= c.cfg.GroupSize {
			g = &dgroup{graphName: cell.Graph, algo: cell.Algo, base: cell.Params}
			open[key] = g
			out = append(out, g)
		}
		g.idxs = append(g.idxs, i)
		g.seeds = append(g.seeds, cell.Params.Seed)
	}
	return out
}

func canceledOutcomes(dg *dgroup) []service.CellOutcome {
	outs := make([]service.CellOutcome, len(dg.idxs))
	for i := range outs {
		outs[i] = service.CellOutcome{State: service.Canceled}
	}
	return outs
}

func failedOutcomes(dg *dgroup, msg string) []service.CellOutcome {
	outs := make([]service.CellOutcome, len(dg.idxs))
	for i := range outs {
		outs[i] = service.CellOutcome{State: service.Failed, Error: msg}
	}
	return outs
}

// runGroup places one dispatch group on the ring and runs it to terminal,
// one attempt at a time, re-placing onto the next healthy worker on worker
// failure (transport error, 5xx, hung connection); application-level
// failures are per-cell outcomes, deterministic, and would fail anywhere. A
// worker that failed may still finish its abandoned attempt, so a retried
// cell can run twice; only the outcomes of the attempt that returned are
// merged.
func (c *Coordinator) runGroup(r *service.BatchRun, pg *pinnedGraph, dg *dgroup) {
	// The group's trace is its first cell's child trace; every cell still
	// carries its own child ID in the group submission, so per-cell greps
	// keep working across hosts.
	gtrace := obs.ChildTraceID(r.TraceID, dg.idxs[0])
	maxAttempts := 2 * len(c.workers)
	var lastErr error
	attempts := 0
	for {
		if r.Context().Err() != nil {
			r.Finish(dg.idxs, canceledOutcomes(dg))
			return
		}
		w := c.owner(pg.fp)
		if w == nil || attempts >= maxAttempts {
			msg := "cluster: no healthy workers"
			if attempts >= maxAttempts {
				msg = fmt.Sprintf("cluster: giving up after %d attempts: %v", attempts, lastErr)
			} else if lastErr != nil {
				msg = fmt.Sprintf("%s (last worker error: %v)", msg, lastErr)
			}
			r.Finish(dg.idxs, failedOutcomes(dg, msg))
			return
		}
		outs, err := c.runGroupOnWorker(r, dg, w, pg, gtrace)
		switch {
		case err == nil:
			r.Finish(dg.idxs, outs)
			return
		case errors.Is(err, errWorkerDown):
			// Downed (by another dispatch or a probe) between placement and
			// dispatch: nothing new learned, just re-place.
			c.log.Info("group re-placed", "event", "group_replace",
				"batch", r.ID, "trace", gtrace, "worker", w.url)
		default:
			c.markDown(w, err)
			c.cellRetries.Add(uint64(len(dg.idxs)))
			lastErr = err
			attempts++
			c.log.Warn("group retry", "event", "group_retry",
				"batch", r.ID, "trace", gtrace, "worker", w.url,
				"cells", len(dg.idxs), "attempt", attempts, "error", err.Error())
		}
	}
}

// runGroupOnWorker executes one group attempt on w: acquire one window slot
// for the whole group, ensure the graph is uploaded (binary codec), submit
// the job group, long-poll it to terminal; every answer arrives in RBS1,
// the binary batch-stream framing. A non-nil error means the worker failed;
// application outcomes — including per-cell failures and cache hits — come
// back one per seed. A batch cancel returns canceled outcomes with a nil
// error after best-effort canceling the worker-side group.
func (c *Coordinator) runGroupOnWorker(r *service.BatchRun, dg *dgroup, w *worker, pg *pinnedGraph, gtrace string) ([]service.CellOutcome, error) {
	ctx := r.Context()
	w.mu.Lock()
	w.queueDepth++
	w.mu.Unlock()
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		w.mu.Lock()
		w.queueDepth--
		w.mu.Unlock()
		return canceledOutcomes(dg), nil
	}
	w.mu.Lock()
	w.queueDepth--
	w.mu.Unlock()
	defer func() { <-w.slots }()
	if !w.isHealthy() {
		return nil, errWorkerDown
	}
	w.mu.Lock()
	w.inFlight += len(dg.idxs)
	w.dispatched += uint64(len(dg.idxs))
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inFlight -= len(dg.idxs)
		w.mu.Unlock()
	}()
	c.groupsDispatched.Add(1)
	c.cellsDispatched.Add(uint64(len(dg.idxs)))

	if err := c.ensureGraph(ctx, w, dg.graphName, pg); err != nil {
		if ctx.Err() != nil {
			return canceledOutcomes(dg), nil
		}
		var apiErr *httpapi.APIError
		if errors.As(err, &apiErr) && apiErr.Status < http.StatusInternalServerError {
			return failedOutcomes(dg, fmt.Sprintf("cluster: uploading %s to %s: %v", dg.graphName, w.url, err)), nil
		}
		return nil, err
	}

	traces := make([]string, len(dg.idxs))
	for k, i := range dg.idxs {
		traces[k] = obs.ChildTraceID(r.TraceID, i)
	}
	req := httpapi.JobGroupRequest{
		Algo:      dg.algo,
		GraphName: dg.graphName,
		Params:    httpapi.ParamsWire(dg.base),
		Seeds:     dg.seeds,
		Traces:    traces,
		TimeoutMs: r.Timeout.Milliseconds(),
		TraceID:   gtrace,
	}
	var gr httpapi.JobGroupResponse
	backoff := c.cfg.PollInterval
	for uploads := 0; ; {
		var err error
		gr, err = w.client.SubmitJobGroup(ctx, req)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return canceledOutcomes(dg), nil
		}
		var apiErr *httpapi.APIError
		if !errors.As(err, &apiErr) || apiErr.Status >= http.StatusInternalServerError {
			// Queue saturation backs off on the same worker; every other
			// transport error or 5xx is a worker failure.
			if isQueueFull(err) {
				select {
				case <-time.After(backoff):
					backoff = min(2*backoff, 250*time.Millisecond)
					continue
				case <-ctx.Done():
					return canceledOutcomes(dg), nil
				}
			}
			return nil, err
		}
		if apiErr.Status == http.StatusNotFound && uploads < 2 {
			// The worker evicted our graph between upload and submit;
			// re-upload and retry.
			uploads++
			w.mu.Lock()
			delete(w.uploaded, dg.graphName)
			w.mu.Unlock()
			if err := c.ensureGraph(ctx, w, dg.graphName, pg); err != nil {
				if ctx.Err() != nil {
					return canceledOutcomes(dg), nil
				}
				return nil, err
			}
			continue
		}
		// Remaining 4xx are deterministic rejections: the whole group would
		// be rejected identically anywhere.
		return failedOutcomes(dg, apiErr.Message), nil
	}
	r.Dispatched(dg.idxs, fmt.Sprintf("w%d:%s", w.id, gr.ID))
	c.log.Info("group dispatched", "event", "group_dispatch",
		"batch", r.ID, "trace", gtrace, "worker", w.url, "group", gr.ID,
		"cells", len(dg.idxs))

	// A batch cancel cancels the worker-side group best-effort, on a fresh
	// context — the batch context is already dead; the HTTP client timeout
	// still bounds it.
	canceled := func() ([]service.CellOutcome, error) {
		_, _ = w.client.CancelJobGroup(context.Background(), gr.ID)
		return canceledOutcomes(dg), nil
	}
	// Long-poll the group to terminal: each GET parks on the worker until
	// the group finishes or groupWait elapses, and a batch cancel aborts it
	// through ctx.
	var pace time.Duration
	for !gr.Terminal() {
		if pace > 0 {
			select {
			case <-ctx.Done():
				return canceled()
			case <-time.After(pace):
			}
		}
		polled := time.Now()
		gv, err := w.client.GetJobGroup(ctx, gr.ID, c.groupWait)
		if ctx.Err() != nil {
			return canceled()
		}
		if err != nil {
			return nil, err
		}
		c.wireBytes.Add(uint64(gv.WireBytes))
		gr = gv
		// An unfinished answer that came back before its wait was up (a
		// full waiter gate answers at once) is paced: one group is polled
		// at most once per PollInterval.
		pace = 0
		if took := time.Since(polled); took < c.groupWait {
			pace = c.cfg.PollInterval - took
		}
	}
	if len(gr.Cells) != len(dg.idxs) {
		// A shape mismatch is version skew, deterministic on any worker.
		return failedOutcomes(dg, fmt.Sprintf(
			"cluster: worker %s returned %d cells for a %d-seed group", w.url, len(gr.Cells), len(dg.idxs))), nil
	}
	outs := make([]service.CellOutcome, len(gr.Cells))
	for _, cw := range gr.Cells {
		// A cell names its seed by index. An index out of range, or one
		// already placed (every placed outcome has a state), is version
		// skew too.
		k := cw.Index
		if k < 0 || k >= len(outs) || outs[k].State != "" {
			return failedOutcomes(dg, fmt.Sprintf(
				"cluster: worker %s returned cell index %d for a %d-seed group", w.url, k, len(dg.idxs))), nil
		}
		res, err := cw.Result.ToResult()
		if err != nil {
			// A result the coordinator cannot decode is deterministic
			// (version skew, not a flaky worker): the cell fails terminally.
			outs[k] = service.CellOutcome{State: service.Failed,
				Error: fmt.Sprintf("cluster: worker %s returned a bad result: %v", w.url, err)}
			continue
		}
		outs[k] = service.CellOutcome{
			State:    service.State(cw.State),
			CacheHit: cw.CacheHit,
			Error:    cw.Error,
			Result:   res,
		}
	}
	return outs, nil
}
