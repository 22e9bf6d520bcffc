package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the harness can observe from outside
// the program. Client spans are timed around the harness's own calls; server
// spans are rebuilt from public getters as each cell arrives.
const (
	spanPhase       = "harness.phase"        // root: the timed phase
	spanRequest     = "harness.request"      // one batch request, POST to stream end
	spanPut         = "httpapi.put_graph"    // PutGraphBinary (set-up)
	spanSubmit      = "httpapi.submit"       // SubmitBatch
	spanStream      = "httpapi.stream"       // StreamBatch
	spanReceive     = "harness.receive"      // one cell's receipt: verify + getter reads
	spanQueue       = "service.queue"        // JobView SubmittedAt→StartedAt
	spanRun         = "service.run"          // JobView StartedAt→FinishedAt (registry.Spec.Run)
	spanDispatch    = "cluster.dispatch"     // group_dispatch event → first cell of the group received
	spanWorkerGroup = "cluster.worker_group" // worker GroupView SubmittedAt→FinishedAt
)

// attribution orders the span names for self-time attribution, highest
// priority first: every instant of the timed phase belongs to the first
// name in this list with a span open at that instant. Server work outranks
// the client calls that wait for it, so along one request the order matches
// nesting and a span's self time is its duration minus what its children
// cover. Under concurrency each instant is still counted once, so the self
// times plus the residue sum to the phase's wall time.
var attribution = []string{
	spanRun, spanWorkerGroup, spanQueue, spanSubmit, spanPut,
	spanDispatch, spanReceive, spanStream, spanRequest,
}

// span is one traced interval. Trace is the batch's or cell's trace ID;
// Parent indexes the span that caused this one (-1 for the root).
type span struct {
	Name   string    `json:"name"`
	Trace  string    `json:"trace"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced phases pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// setEnd closes span i, recorded open because its children need its index.
func (t *tracer) setEnd(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribute splits the interval [start, end) among span names by the
// priority order: each instant goes to the first name in order that has a
// span open at that instant, instants with no open span are residue. The
// per-name self times plus the residue sum to end-start exactly. A span
// whose name is missing from order is an error.
func attribute(spans []span, start, end time.Time, order []string) (map[string]time.Duration, time.Duration, error) {
	rank := make(map[string]int, len(order))
	for i, name := range order {
		rank[name] = i
	}
	type edge struct {
		at    time.Duration
		rank  int
		delta int
	}
	var edges []edge
	for _, s := range spans {
		r, ok := rank[s.Name]
		if !ok {
			return nil, 0, fmt.Errorf("span %q has no attribution rank", s.Name)
		}
		lo, hi := s.Start.Sub(start), s.End.Sub(start)
		lo, hi = max(lo, 0), min(hi, end.Sub(start))
		if hi <= lo {
			continue
		}
		edges = append(edges, edge{lo, r, 1}, edge{hi, r, -1})
	}
	slices.SortFunc(edges, func(a, b edge) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	open := make([]int, len(order))
	self := make([]time.Duration, len(order))
	var residue, prev time.Duration
	credit := func(d time.Duration) {
		for r, n := range open {
			if n > 0 {
				self[r] += d
				return
			}
		}
		residue += d
	}
	for i := 0; i < len(edges); {
		at := edges[i].at
		credit(at - prev)
		for ; i < len(edges) && edges[i].at == at; i++ {
			open[edges[i].rank] += edges[i].delta
		}
		prev = at
	}
	credit(end.Sub(start) - prev)
	out := make(map[string]time.Duration, len(order))
	for r, name := range order {
		out[name] = self[r]
	}
	return out, residue, nil
}

// dispatchLog is a slog handler given to the coordinator as its Logger. It
// keeps the time of every group_dispatch span event, keyed by worker URL and
// worker-side group ID, while capture is on, and drops everything else.
type dispatchLog struct {
	capture atomic.Bool
	mu      sync.Mutex
	at      map[string]time.Time
}

func newDispatchLog() *dispatchLog { return &dispatchLog{at: make(map[string]time.Time)} }

// dispatchedAt returns when the coordinator logged the dispatch of group
// on the worker at url.
func (d *dispatchLog) dispatchedAt(url, group string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.at[url+"|"+group]
	return t, ok
}

func (d *dispatchLog) Enabled(context.Context, slog.Level) bool { return true }

func (d *dispatchLog) Handle(_ context.Context, r slog.Record) error {
	if !d.capture.Load() {
		return nil
	}
	var event, worker, group string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "event":
			event = a.Value.String()
		case "worker":
			worker = a.Value.String()
		case "group":
			group = a.Value.String()
		}
		return true
	})
	if event != "group_dispatch" {
		return nil
	}
	d.mu.Lock()
	d.at[worker+"|"+group] = r.Time
	d.mu.Unlock()
	return nil
}

// The coordinator logs every attribute inline, so derived handlers can
// share the receiver.
func (d *dispatchLog) WithAttrs([]slog.Attr) slog.Handler { return d }
func (d *dispatchLog) WithGroup(string) slog.Handler      { return d }
