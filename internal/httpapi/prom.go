package httpapi

// This file is the Prometheus text exposition of /metrics. JSON stays the
// default; a scraper opts in through standard content negotiation (an Accept
// header naming text/plain, which Prometheus sends by default). Both server
// modes expose it: the single-node handler renders the engine-telemetry
// histograms beside the service and batch counters, and the coordinator
// handler renders its fleet counters plus one gauge set per worker.

import (
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wal"
)

// wantsProm reports whether the request negotiates the Prometheus text
// format: any Accept clause naming text/plain (or the openmetrics type, which
// the 0.0.4 text format satisfies for our counter/gauge/histogram families).
// No Accept header, */* alone, or application/json keep the JSON default.
func wantsProm(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	for clause := range strings.SplitSeq(accept, ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(clause), ";")
		switch strings.TrimSpace(mt) {
		case "text/plain", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// writePromEngine renders the single-node /metrics document: service + batch
// counters, the engine-telemetry aggregates, and — on durable servers — the
// WAL families of both logs.
func writePromEngine(w http.ResponseWriter, m service.Metrics, bm service.BatchMetrics, t service.EngineTelemetry,
	st *store.Store, batches *service.Batches) {
	p := obs.NewPromWriter()

	// Engine telemetry: per-run distributions plus lifetime totals over live
	// (non-cached) completions.
	p.Histogram("repro_engine_rounds", "Real communication rounds per live run.", t.Rounds)
	p.Histogram("repro_engine_messages", "Messages delivered per live run.", t.Messages)
	p.Counter("repro_engine_runs_total", "Live (non-cached) runs folded into the engine telemetry.", float64(t.Observed))
	p.Counter("repro_engine_rounds_total", "Total real rounds across live runs.", float64(t.RoundsTotal))
	p.Counter("repro_engine_messages_total", "Total messages delivered across live runs.", float64(t.MessagesTotal))
	p.Counter("repro_engine_bits_total", "Total payload bits across live runs.", float64(t.BitsTotal))
	p.Counter("repro_engine_memo_hits_total", "Exchange-folding memo hits across live runs.", float64(t.MemoHits))
	p.Counter("repro_engine_memo_misses_total", "Exchange-folding memo misses across live runs.", float64(t.MemoMisses))

	// Job-service counters.
	p.Counter("repro_jobs_submitted_total", "Jobs submitted.", float64(m.Submitted))
	p.Counter("repro_jobs_completed_total", "Jobs completed.", float64(m.Completed))
	p.Counter("repro_jobs_failed_total", "Jobs failed.", float64(m.Failed))
	p.Counter("repro_jobs_canceled_total", "Jobs canceled.", float64(m.Canceled))
	p.Counter("repro_cache_hits_total", "Single-job result-cache hits.", float64(m.CacheHits))
	p.Counter("repro_cache_misses_total", "Single-job result-cache misses.", float64(m.CacheMisses))
	p.Counter("repro_batch_cache_hits_total", "Batch-member result-cache hits.", float64(m.BatchCacheHits))
	p.Counter("repro_batch_cache_misses_total", "Batch-member result-cache misses.", float64(m.BatchCacheMisses))
	p.Gauge("repro_cache_size", "Entries in the result cache.", float64(m.CacheSize))
	p.Gauge("repro_jobs_queued", "Jobs waiting in the queue.", float64(m.Queued))
	p.Gauge("repro_jobs_running", "Jobs currently executing.", float64(m.Running))
	p.Gauge("repro_workers", "Service worker goroutines.", float64(m.Workers))
	p.Gauge("repro_job_latency_ms", "Job latency percentiles over the recent window.",
		m.LatencyP50Ms, "quantile", "0.5")
	p.Gauge("repro_job_latency_ms", "", m.LatencyP90Ms, "quantile", "0.9")
	p.Gauge("repro_job_latency_ms", "", m.LatencyP99Ms, "quantile", "0.99")

	// Per-tenant families (multi-tenant servers only; the anonymous tenant
	// is never tracked). One label set per tenant, in sorted ID order so
	// the exposition is deterministic.
	for _, id := range obs.SortedKeys(m.Tenants) {
		tm := m.Tenants[id]
		p.Counter("repro_tenant_jobs_submitted_total", "Jobs submitted by the tenant.", float64(tm.Submitted), "tenant", id)
		p.Counter("repro_tenant_jobs_completed_total", "Tenant jobs completed.", float64(tm.Completed), "tenant", id)
		p.Counter("repro_tenant_jobs_failed_total", "Tenant jobs failed.", float64(tm.Failed), "tenant", id)
		p.Counter("repro_tenant_jobs_canceled_total", "Tenant jobs canceled.", float64(tm.Canceled), "tenant", id)
		p.Counter("repro_tenant_jobs_rejected_total", "Tenant submissions refused by the tenant's queue bound.", float64(tm.Rejected), "tenant", id)
		p.Gauge("repro_tenant_jobs_queued", "Tenant jobs waiting in the fair queue.", float64(tm.Queued), "tenant", id)
		p.Gauge("repro_tenant_jobs_running", "Tenant jobs currently executing.", float64(tm.Running), "tenant", id)
	}

	// Batch-engine counters.
	p.Counter("repro_batches_submitted_total", "Batches submitted.", float64(bm.BatchesSubmitted))
	p.Counter("repro_batches_done_total", "Batches finished.", float64(bm.BatchesDone))
	p.Counter("repro_batches_canceled_total", "Batches canceled.", float64(bm.BatchesCanceled))
	p.Counter("repro_batch_cells_total", "Batch member cells expanded.", float64(bm.BatchCells))

	// WAL counters, one label set per log ("store" and "batches"); absent
	// entirely on non-durable servers.
	if st != nil {
		if wm, ok := st.WALMetrics(); ok {
			writePromWAL(p, "store", wm)
		}
	}
	if batches != nil {
		if lm, ok := batches.LedgerMetrics(); ok {
			writePromWAL(p, "batches", lm.Metrics)
			p.Counter("repro_wal_batches_resumed_total", "Incomplete batches resumed from the ledger at boot.", float64(lm.BatchesResumed), "log", "batches")
			p.Counter("repro_wal_cells_restored_total", "Finished cells restored from the ledger at boot (never re-executed).", float64(lm.CellsRestored), "log", "batches")
			p.Counter("repro_wal_records_dropped_total", "Async ledger records dropped on backpressure (re-run after a crash, never lost correctness).", float64(lm.RecordsDropped), "log", "batches")
		}
	}

	flushProm(w, p)
}

// writePromWAL renders one internal/wal log's counter families under a log
// label, shared by the store WAL and the batch ledger.
func writePromWAL(p *obs.PromWriter, log string, m wal.Metrics) {
	p.Counter("repro_wal_appends_total", "Records appended to the WAL.", float64(m.AppendsTotal), "log", log)
	p.Counter("repro_wal_appended_bytes_total", "Bytes appended to the WAL.", float64(m.AppendedBytes), "log", log)
	p.Counter("repro_wal_syncs_total", "WAL fsync group commits.", float64(m.SyncsTotal), "log", log)
	p.Counter("repro_wal_snapshots_total", "WAL snapshots written.", float64(m.SnapshotsTotal), "log", log)
	p.Counter("repro_wal_segments_created_total", "WAL segments opened.", float64(m.SegmentsCreated), "log", log)
	p.Counter("repro_wal_replayed_records_total", "Records replayed at boot.", float64(m.ReplayedRecords), "log", log)
	p.Counter("repro_wal_replayed_snapshots_total", "Snapshots replayed at boot.", float64(m.ReplayedSnapshots), "log", log)
	p.Counter("repro_wal_replay_torn_tails_total", "Torn segment tails tolerated during replay.", float64(m.ReplayTornTails), "log", log)
	p.Gauge("repro_wal_records_since_snapshot", "Records appended since the last snapshot.", float64(m.SinceSnapshot), "log", log)
}

// writePromCluster renders the coordinator-mode /metrics document:
// coordinator counters, the summed fleet counters, and one gauge set per
// worker (emitted in sorted URL order, so output is deterministic).
func writePromCluster(w http.ResponseWriter, m ClusterMetrics, v ClusterView) {
	p := obs.NewPromWriter()

	p.Gauge("repro_cluster_workers", "Configured workers.", float64(m.WorkersTotal))
	p.Gauge("repro_cluster_workers_healthy", "Workers passing health checks.", float64(m.WorkersHealthy))
	p.Counter("repro_cluster_batches_submitted_total", "Batches accepted by the coordinator.", float64(m.BatchesSubmitted))
	p.Counter("repro_cluster_batches_done_total", "Batches finished by the coordinator.", float64(m.BatchesDone))
	p.Counter("repro_cluster_batches_canceled_total", "Batches canceled on the coordinator.", float64(m.BatchesCanceled))
	p.Counter("repro_cluster_batch_cells_total", "Cells expanded across coordinator batches.", float64(m.BatchCells))
	p.Counter("repro_cluster_cells_dispatched_total", "Cell dispatches to workers (retries included).", float64(m.CellsDispatched))
	p.Counter("repro_cluster_cell_retries_total", "Cell re-dispatches after a worker failure.", float64(m.CellRetries))
	p.Counter("repro_cluster_worker_failures_total", "Worker failures observed by the coordinator.", float64(m.WorkerFailures))
	p.Counter("repro_cluster_groups_dispatched_total", "Job-group dispatches to workers (retries included).", float64(m.GroupsDispatched))
	p.Counter("repro_cluster_wire_bytes_total", "Body bytes shipped over the binary wire codecs.", float64(m.WireBytesTotal))

	// Fleet: the summed counters of every worker that answered /metrics.
	p.Counter("repro_fleet_jobs_submitted_total", "Jobs submitted across the fleet.", float64(m.Fleet.Submitted))
	p.Counter("repro_fleet_jobs_completed_total", "Jobs completed across the fleet.", float64(m.Fleet.Completed))
	p.Counter("repro_fleet_jobs_failed_total", "Jobs failed across the fleet.", float64(m.Fleet.Failed))
	p.Counter("repro_fleet_cache_hits_total", "Result-cache hits across the fleet (single-job and batch).",
		float64(m.Fleet.CacheHits+m.Fleet.BatchCacheHits))

	// Per-worker gauges, one label set per worker in sorted URL order.
	byURL := make(map[string]ClusterWorker, len(v.Workers))
	for _, cw := range v.Workers {
		byURL[cw.URL] = cw
	}
	for _, url := range obs.SortedKeys(byURL) {
		cw := byURL[url]
		healthy := 0.0
		if cw.Healthy {
			healthy = 1
		}
		p.Gauge("repro_cluster_worker_healthy", "Worker health (1 healthy, 0 down).", healthy, "worker", url)
		p.Gauge("repro_cluster_worker_in_flight", "Cells currently dispatched to the worker.", float64(cw.InFlight), "worker", url)
		p.Gauge("repro_cluster_queue_depth", "Dispatch attempts waiting behind the worker's window.", float64(cw.QueueDepth), "worker", url)
		p.Gauge("repro_cluster_worker_graphs", "Graphs this coordinator has uploaded to the worker.", float64(cw.Graphs), "worker", url)
		p.Counter("repro_cluster_worker_dispatched_total", "Cell dispatches to the worker.", float64(cw.Dispatched), "worker", url)
		p.Counter("repro_cluster_worker_failures_total", "Failures observed against the worker.", float64(cw.Failures), "worker", url)
	}

	flushProm(w, p)
}

func flushProm(w http.ResponseWriter, p *obs.PromWriter) {
	// WriteTo refuses to write anything on a rendering error (an odd label
	// list is a programming error), so the 500 below still owns the response.
	w.Header().Set("Content-Type", obs.PromContentType)
	if _, err := p.WriteTo(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
