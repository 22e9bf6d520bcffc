// Command servebench is the repository's served-cell benchmark. It starts
// the real serving stack in-process with the constructors cmd/reprod uses,
// drives it over loopback HTTP through httpapi.Client, verifies every
// delivered answer, and prints every metric by name with its unit. The last
// line of standard output is one JSON object: with --trace 0 it carries the
// end-to-end metrics, measured with tracing off; with --trace 1 it carries
// the per-layer metrics of a traced run, which also prints each layer's
// self time, the residue no layer covers and the tracing overhead.
//
// Usage (from the repository root; servebench/run.sh builds and runs it):
//
//	servebench --workload heavy-cells|interactive|fleet-sweep --seed N --seconds S --trace 0|1
//
// RATIONALE.md beside this file records why each workload exists, which
// layer each metric watches and what the sizing runs found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

const (
	// A run sets its stack up at least setUps times and for at least
	// setUpTime, so that a cheap set-up is sampled over seconds rather than
	// one moment of the host; setup_s is the median, and the last set-up
	// serves the timed phase.
	setUps    = 9
	setUpTime = 3 * time.Second
	// deadline turns a hung workload into a failed run.
	deadline = 170 * time.Second
	// gomaxprocs matches the two CPUs the benchmark was sized on.
	gomaxprocs = 2
	// buildDir holds every file a run writes, relative to the checkout root.
	buildDir = ".bench_build"
)

// metric is one printed measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// output is the final JSON line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "heavy-cells, interactive or fleet-sweep")
	seed := flag.Uint64("seed", 1, "input seed: graphs, keys and cell seeds derive from it")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs a traced phase after the untraced one and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "servebench: want --workload heavy-cells|interactive|fleet-sweep, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "servebench: workload %s did not finish within %s\n", w.name, deadline)
		os.RemoveAll(work)
		os.Exit(3)
	})
	out, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, work)
	watchdog.Stop()
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: workload %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run measures one workload: inputs, repeated set-up, the untraced timed
// phase and, with traced set, a traced phase on the same stack.
func run(w *workload, seed uint64, seconds time.Duration, traced bool, work string) (*output, error) {
	in, err := w.gen(seed, work)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	calib := calibrate()

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var setupS, putMs []float64
	var e *env
	setUpCells, setUpFailed := 0, 0
	var setUpErrs []string
	for first := time.Now(); len(setupS) < setUps || time.Since(first) < setUpTime; {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		e = newEnv(work, w, in)
		e.tr = tr
		// Collect the harness's own garbage (inputs, the previous set-up)
		// before the clock starts.
		runtime.GC()
		start := time.Now()
		err := w.setUp(in, e)
		setupS = append(setupS, time.Since(start).Seconds())
		setUpCells += e.setUpCells
		setUpFailed += e.setUpFailed
		setUpErrs = append(setUpErrs, e.setUpErrs...)
		putMs = append(putMs, e.putMs...)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer e.close()

	untraced, d0, err := measure(w, in, e, nil, seconds)
	if err != nil {
		return nil, err
	}
	peakMB := untraced.peakMB
	if peakMB == 0 {
		fmt.Printf("note: the phase delivered %d cells, fewer than the %d at which peak_rss_mb is read; it is read at the phase's end\n",
			untraced.cells, w.rssCells)
		peakMB = float64(stats.PeakRSS()) / (1 << 20)
	}
	replayFailed, replayed := 0, 0
	for _, rc := range untraced.replays {
		replayed++
		if err := e.refs[rc.graph].replay(rc.algo, rc.params, rc.result); err != nil {
			replayFailed++
			setUpErrs = append(setUpErrs, "replay: "+err.Error())
		}
	}
	var tracedPh *phase
	var d1 delta
	if traced {
		if e.fleet != nil {
			e.fleet.log.capture.Store(true)
		}
		if tracedPh, d1, err = measure(w, in, e, tr, seconds); err != nil {
			return nil, err
		}
	}
	attempted := setUpCells + untraced.attempted + replayed
	failed := setUpFailed + untraced.failed + replayFailed + int(d0.non2xx)
	errs := append(setUpErrs, untraced.errs...)
	if tracedPh != nil {
		attempted += tracedPh.attempted
		failed += tracedPh.failed + int(d1.non2xx)
		errs = append(errs, tracedPh.errs...)
	}
	for _, msg := range errs {
		fmt.Fprintf(os.Stderr, "servebench: %s: %s\n", w.name, msg)
	}

	e2e, err := endToEnd(setupS, untraced, d0, peakMB)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s  seed %d  %d cells in %.2f s  host.calib_ms %.3f",
		w.name, seed, untraced.cells, untraced.wall().Seconds(), calib)
	if e.fleet != nil {
		fmt.Printf("  cells per worker %v", untraced.perWorker)
	}
	fmt.Println()
	fmt.Printf("error_rate %.6f fraction (%d failed of %d attempted; %d non-2xx responses; %d replayed cells)\n",
		ratio(float64(failed), float64(attempted)), failed, attempted, d0.non2xx, replayed)
	printMetrics("end to end (tracing off)", e2e)
	printMetrics("wall clock (tracing off; printed, not bounded)", wallClock(untraced))
	metrics := e2e
	if traced {
		layers, err := perLayer(e, untraced, d0, tracedPh, putMs, calib)
		if err != nil {
			return nil, err
		}
		printMetrics("per layer", layers)
		if err := printAttribution(w, tracedPh, untraced); err != nil {
			return nil, err
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
		metrics = layers
	}
	out := &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out, nil
}

// delta is what changed in the counters over one phase.
type delta struct {
	cpu                            time.Duration
	mallocs, allocBytes, gcCycles  uint64
	requests, respBytes            int64
	non2xx, refused                int64
	members, hits                  uint64
	walAppends, walBytes, walSyncs uint64
	groups, dispatched, batchCells uint64
	wireBytes                      uint64
}

// measure runs one timed phase between two counter snapshots.
func measure(w *workload, in *inputs, e *env, tr *tracer, seconds time.Duration) (*phase, delta, error) {
	ph := newPhase(e, tr)
	if tr == nil {
		ph.rssCells = w.rssCells
	}
	runtime.GC()
	before := e.snapshot()
	err := ph.drive(w, in, seconds)
	after := e.snapshot()
	d := delta{
		cpu:        after.cpu - before.cpu,
		mallocs:    after.mem.Mallocs - before.mem.Mallocs,
		allocBytes: after.mem.TotalAlloc - before.mem.TotalAlloc,
		gcCycles:   uint64(after.mem.NumGC - before.mem.NumGC),
		requests:   after.transport.requests - before.transport.requests,
		respBytes:  after.transport.respBytes - before.transport.respBytes,
		non2xx:     after.transport.non2xx - before.transport.non2xx,
		refused:    after.transport.refused - before.transport.refused,
		members:    after.svc.BatchMembers - before.svc.BatchMembers,
		hits:       after.svc.BatchCacheHits - before.svc.BatchCacheHits,
		walAppends: after.walAppends - before.walAppends,
		walBytes:   after.walBytes - before.walBytes,
		walSyncs:   after.walSyncs - before.walSyncs,
		groups:     after.coord.GroupsDispatched - before.coord.GroupsDispatched,
		dispatched: after.coord.CellsDispatched - before.coord.CellsDispatched,
		batchCells: after.coord.BatchCells - before.coord.BatchCells,
		wireBytes:  after.coord.WireBytesTotal - before.coord.WireBytesTotal,
	}
	if err != nil && ph.failed == 0 {
		return nil, d, err
	}
	return ph, d, nil
}

// endToEnd computes the bounded end-to-end metrics: what serving a cell
// costs, in set-up time, CPU time and memory. Wall-clock throughput and
// latency are printed beside them by wallClock but not bounded, because on a
// shared virtual machine they follow the host's load (RATIONALE.md).
func endToEnd(setupS []float64, ph *phase, d delta, peakMB float64) ([]metric, error) {
	if ph.cells == 0 {
		return nil, fmt.Errorf("no verified cells delivered")
	}
	return []metric{
		{"setup_s", "s", median(setupS)},
		{"cpu_ms_per_cell", "ms", ms(d.cpu) / float64(ph.cells)},
		{"peak_rss_mb", "MB", peakMB},
	}, nil
}

// wallClock returns the phase's throughput and its latency percentiles,
// each percentile only when at least minBeyond samples lie beyond it.
func wallClock(ph *phase) []metric {
	out := []metric{{"cells_per_s", "cells/s", float64(ph.cells) / ph.wall().Seconds()}}
	for _, q := range []float64{50, 99} {
		name := fmt.Sprintf("latency_p%g_ms", q)
		v, err := percentile(ph.lat, q)
		if err != nil {
			fmt.Printf("note: %s not reported: %v\n", name, err)
			continue
		}
		out = append(out, metric{name, "ms", v})
	}
	return out
}

// perLayer computes the layer metrics: counts and client timings from the
// untraced phase, getter-derived times from the traced one. A metric of a
// layer the workload does not load reads 0.
func perLayer(e *env, u *phase, d delta, t *phase, putMs []float64, calib float64) ([]metric, error) {
	cells := float64(u.cells)
	pct := func(name string, xs []float64, q float64) float64 {
		v, err := percentile(xs, q)
		if err != nil {
			if len(xs) > 0 {
				fmt.Printf("note: %s not reported: %v\n", name, err)
			}
			return 0
		}
		return v
	}
	pool := 0
	var busy time.Duration
	switch {
	case e.node != nil:
		pool = e.node.pool
		busy = unionLength(t.runIvs, t.start, t.end)
	case e.fleet != nil:
		busiest := -1
		for wi, n := range t.perWorker {
			if busiest < 0 || n > t.perWorker[busiest] {
				busiest = wi
			}
		}
		if busiest >= 0 {
			busy = unionLength(t.workerIvs[busiest], t.start, t.end)
		}
	}
	skew := 1.0
	if e.fleet != nil {
		var most, total int
		for _, n := range u.perWorker {
			most = max(most, n)
			total += n
		}
		skew = ratio(float64(most), float64(total)/float64(len(e.fleet.workers)))
	}
	var out []metric
	// Mean run time per live cell: the phase has a fixed length, so the sum
	// alone would stay put when the engine gets faster.
	for _, algo := range heavyAlgos {
		out = append(out, metric{"registry.run_s." + algo, "s", ratio(t.runS[algo], float64(t.runCells[algo]))})
	}
	out = append(out,
		metric{"simul.messages_per_s", "1/s", ratio(float64(t.liveMsgs), t.runTotal.Seconds())},
		metric{"simul.rounds", "count", float64(u.rounds)},
		metric{"simul.messages", "count", float64(u.messages)},
		metric{"simul.bits", "bit", float64(u.bits)},
		metric{"agg.memo_hit_ratio", "ratio", ratio(float64(u.memoHits), float64(u.memoHits+u.memoMisses))},
		metric{"service.busy_frac", "fraction", ratio(t.runTotal.Seconds(), float64(pool)*t.wall().Seconds())},
		metric{"service.queue_wait_ms.p50", "ms", pct("service.queue_wait_ms.p50", t.queueMs, 50)},
		metric{"service.queue_wait_ms.p99", "ms", pct("service.queue_wait_ms.p99", t.queueMs, 99)},
		metric{"service.cache_hit_ratio", "ratio", ratio(float64(d.hits), float64(d.members))},
		metric{"service.hit_latency_ms.p50", "ms", pct("service.hit_latency_ms.p50", u.hitLat, 50)},
		metric{"service.miss_latency_ms.p50", "ms", pct("service.miss_latency_ms.p50", u.missLat, 50)},
		metric{"httpapi.submit_ms.p50", "ms", pct("httpapi.submit_ms.p50", u.submitMs, 50)},
		metric{"httpapi.deliver_lag_ms.p50", "ms", pct("httpapi.deliver_lag_ms.p50", t.lagMs, 50)},
		metric{"httpapi.first_cell_s", "s", mean(u.firstCell)},
		metric{"httpapi.resp_bytes_per_cell", "B", float64(d.respBytes) / cells},
		metric{"httpapi.requests_per_cell", "count", float64(d.requests) / cells},
		metric{"wal.syncs_per_cell", "count", float64(d.walSyncs) / cells},
		metric{"wal.appends_per_cell", "count", float64(d.walAppends) / cells},
		metric{"wal.bytes_per_cell", "B", float64(d.walBytes) / cells},
		metric{"store.put_ms", "ms", mean(putMs)},
		metric{"tenant.refused", "count", float64(d.refused)},
		metric{"cluster.worker_idle_frac", "fraction", 1 - ratio(busy.Seconds(), t.wall().Seconds())},
		metric{"cluster.placement_skew", "ratio", skew},
		metric{"cluster.cells_per_group", "count", ratio(float64(d.dispatched), float64(d.groups))},
		metric{"cluster.dispatch_ratio", "ratio", ratio(float64(d.dispatched), float64(d.batchCells))},
		metric{"cluster.wire_bytes_per_cell", "B", float64(d.wireBytes) / cells},
		metric{"runtime.allocs_per_cell", "count", float64(d.mallocs) / cells},
		metric{"runtime.alloc_kb_per_cell", "KB", float64(d.allocBytes) / 1024 / cells},
		metric{"runtime.gc_cycles", "count", float64(d.gcCycles)},
		metric{"host.calib_ms", "ms", calib},
	)
	self, residue, err := t.attribute()
	if err != nil {
		return nil, err
	}
	for _, name := range attribution {
		out = append(out, metric{"self_s." + name, "s", self[name].Seconds()})
	}
	out = append(out, metric{"self_s.residue", "s", residue.Seconds()})
	return out, nil
}

// printAttribution prints the traced phase's layer table: each layer's self
// time, the residue, their sum against the wall time, and the tracing
// overhead against the untraced phase of the same run.
func printAttribution(w *workload, t, u *phase) error {
	self, residue, err := t.attribute()
	if err != nil {
		return err
	}
	wall := t.wall()
	fmt.Printf("\nlayer self time, traced phase of %s (%.3f s wall, %d cells, %d server records gone before read)\n",
		w.name, wall.Seconds(), t.cells, t.missingIDs)
	rows := append([]string(nil), attribution...)
	sort.SliceStable(rows, func(i, j int) bool { return self[rows[i]] > self[rows[j]] })
	var sum time.Duration
	for _, name := range rows {
		sum += self[name]
		fmt.Printf("  %-22s %10.4f s  %6.2f%%\n", name, self[name].Seconds(), 100*self[name].Seconds()/wall.Seconds())
	}
	sum += residue
	fmt.Printf("  %-22s %10.4f s  %6.2f%%\n", "residue", residue.Seconds(), 100*residue.Seconds()/wall.Seconds())
	fmt.Printf("  %-22s %10.4f s  (wall %.4f s)\n", "sum", sum.Seconds(), wall.Seconds())
	tp50, err1 := percentile(t.lat, 50)
	up50, err2 := percentile(u.lat, 50)
	tcps := float64(t.cells) / wall.Seconds()
	ucps := float64(u.cells) / u.wall().Seconds()
	fmt.Printf("tracing overhead: cells_per_s %.2f traced vs %.2f untraced (%+.2f%%)", tcps, ucps, 100*(ucps/tcps-1))
	if err1 == nil && err2 == nil {
		fmt.Printf(", latency_p50_ms %.3f traced vs %.3f untraced (%+.2f%%)", tp50, up50, 100*(tp50/up50-1))
	}
	fmt.Println()
	return nil
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("\n%s\n", title)
	width := 0
	for _, m := range ms {
		width = max(width, len(m.name))
	}
	for _, m := range ms {
		v := fmt.Sprintf("%.6g", m.value)
		if math.Abs(m.value) >= 1e6 {
			v = fmt.Sprintf("%.0f", m.value)
		}
		fmt.Printf("  %-*s %14s %s\n", width, m.name, v, strings.TrimSpace(m.unit))
	}
}
