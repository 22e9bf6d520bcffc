// Package service is the concurrent job and batch engine behind the HTTP
// API: a bounded worker pool that executes registry algorithms on submitted
// graphs, an in-memory job store with queued/running/done/failed/canceled
// states, per-job context cancellation and timeouts, an LRU result cache
// keyed by (graph fingerprint, algorithm, params), service metrics, and two
// aggregates over the job: the batch layer (Batches) that expands one
// stored graph × a parameter grid into member jobs with per-batch progress,
// cancel fan-out and aggregated per-cell statistics, and job groups that
// run one algorithm over N seeds (DESIGN.md §4, §4a, §6a). Every job —
// single, batch member or group member — passes the one admission step and
// runs on the one worker pool.
//
// The engine is deliberately self-contained and transport-agnostic: the
// internal/httpapi front-end served by cmd/reprod is one client; embedding
// the Service directly (as the tests and cmd/sweep's in-process mode do) is
// another.
//
// Layer (DESIGN.md §2): service sits above internal/registry,
// internal/store and internal/stats, below internal/httpapi and the cmd
// binaries.
//
// Concurrency and ownership: a Service and a Batches are safe for
// concurrent use. The Service takes ownership of submitted graphs — callers
// must not mutate them after Submit (sharing one immutable graph across
// many jobs is fine and is exactly what the batch layer does with stored
// graphs). Results handed out in JobViews/BatchViews are shared with the
// result cache and must be treated as immutable. Lock ordering is
// Service.mu → batch.mu → (Batches.mu, store locks); see Batches.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Config sizes the engine. Zero values select defaults.
type Config struct {
	// Workers is the number of concurrent executor goroutines
	// (default GOMAXPROCS).
	Workers int
	// QueueSize bounds how many jobs may wait for a worker (default 256);
	// Submit fails with ErrQueueFull beyond it.
	QueueSize int
	// CacheSize is the LRU result-cache capacity in entries (default 128).
	CacheSize int
	// DefaultTimeout applies to jobs that do not set their own
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxJobs bounds how many finished jobs the store retains for polling
	// (default 4096); beyond it the oldest finished jobs are evicted so a
	// long-running service cannot grow without bound.
	MaxJobs int
	// TenantLimits resolves per-tenant admission limits by tenant ID for
	// the fair-share queue. nil means every tenant (including the anonymous
	// "" tenant of open mode) gets the defaults: weight 1, the shared
	// QueueSize bound, no concurrent-running cap. The resolver is called on
	// the submit path and must be fast and lock-free (the HTTP layer backs
	// it with an atomically-swapped keyring).
	TenantLimits func(tenant string) TenantLimits
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	return c
}

// State is a job lifecycle state.
type State string

const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Request describes one job submission.
type Request struct {
	// Algo names a registered algorithm.
	Algo string
	// Graph is the input graph. The service takes ownership: callers must
	// not mutate it after Submit.
	Graph *graph.Graph
	// Params configures the run; zero fields mean registry defaults.
	Params registry.Params
	// Timeout bounds the execution (0 = Config.DefaultTimeout).
	Timeout time.Duration
	// TraceID identifies the job across tiers (logs, HTTP headers, batch
	// cells). Empty means the service generates one at submit, so every
	// job is traceable whether or not the client participates.
	TraceID string
	// Tenant is the submitting tenant's ID ("" = anonymous). It selects the
	// fair-share queue lane and scopes visibility at the HTTP layer.
	Tenant string
}

// JobView is an immutable snapshot of a job.
type JobView struct {
	ID          string
	TraceID     string
	Tenant      string
	Algo        string
	Params      registry.Params
	State       State
	Error       string
	CacheHit    bool
	Result      *registry.Result
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

type job struct {
	id       string
	traceID  string
	tenant   string
	spec     *registry.Spec
	g        *graph.Graph
	params   registry.Params
	cacheKey string
	timeout  time.Duration
	// fromBatch marks jobs expanded from a batch; their cache traffic is
	// metered separately so /metrics can tell a cached batch cell from a
	// single-job miss.
	fromBatch bool
	// notify, when set, is invoked exactly once — under s.mu, from
	// markTerminal — when the job reaches a terminal state. It must be fast
	// and must not call back into the Service (the batch engine only touches
	// its own state).
	notify func(JobView)
	// grp, when set, makes the job the member for cell `cell` of that job
	// group: it has no ID, is never stored in s.jobs, and settles into
	// grp.cells[cell].
	grp  *group
	cell int

	state     State
	err       string
	cacheHit  bool
	result    *registry.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
}

// Service errors surfaced to clients.
var (
	ErrQueueFull = errors.New("service: job queue is full")
	ErrClosed    = errors.New("service: service is closed")
	ErrDraining  = errors.New("service: service is draining")
	ErrNotFound  = errors.New("service: no such job")
	ErrFinished  = errors.New("service: job already finished")
)

// Service is the job engine. Create with New, release with Close.
type Service struct {
	cfg   Config
	queue *fairQueue
	wg    sync.WaitGroup

	mu             sync.Mutex
	closed         bool
	draining       bool // closed via Drain: submissions get ErrDraining
	jobs           map[string]*job
	terminal       []string // finished job IDs, oldest first, for eviction
	groups         map[string]*group
	terminalGroups []string // finished group IDs, oldest first, for eviction
	cache          *lruCache
	met            counters
	tenantMet      map[string]*tenantCounters // per-tenant totals, "" excluded
	queued         int                        // jobs admitted but not yet running, minus canceled ones
	running        int
	nextID         uint64
	nextGroupID    uint64
}

// tenantCounter lazily creates the per-tenant counter row. Must be called
// with s.mu held; the anonymous tenant is not tracked (open-mode metrics
// stay byte-identical to previous releases).
func (s *Service) tenantCounter(tenant string) *tenantCounters {
	tc := s.tenantMet[tenant]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenantMet[tenant] = tc
	}
	return tc
}

// markTerminal must be called with s.mu held once a job reaches a terminal
// state: it releases the job's input graph and then either settles a group
// member into its group or evicts the oldest finished jobs beyond the
// retention bound and fires the job's terminal notification (batch
// bookkeeping) exactly once.
func (s *Service) markTerminal(jb *job) {
	jb.g = nil
	jb.finished = time.Now()
	if jb.tenant != "" {
		tc := s.tenantCounter(jb.tenant)
		switch jb.state {
		case Done:
			tc.completed++
		case Failed:
			tc.failed++
		case Canceled:
			tc.canceled++
		}
	}
	if jb.grp != nil {
		s.settleMemberLocked(jb)
		return
	}
	s.terminal = append(s.terminal, jb.id)
	for len(s.terminal) > s.cfg.MaxJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	if jb.notify != nil {
		jb.notify(jb.view())
		// Fired: drop it, and with it the batch run and the pinned graphs
		// it references, which the retained job must not keep alive.
		jb.notify = nil
	}
}

// New starts a Service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		queue:     newFairQueue(cfg.QueueSize, cfg.TenantLimits),
		jobs:      make(map[string]*job),
		groups:    make(map[string]*group),
		cache:     newLRUCache(cfg.CacheSize),
		tenantMet: make(map[string]*tenantCounters),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job. If an identical run (same graph
// fingerprint, algorithm and normalized params) is cached, the job completes
// immediately with CacheHit set and never occupies a worker.
func (s *Service) Submit(req Request) (JobView, error) {
	return s.submit(req, "", nil)
}

// submit is the single-job submission path. fp is req.Graph's fingerprint,
// "" to hash the graph here. A non-nil notify marks a batch member: its
// cache traffic goes to the batch counters and notify fires once at its
// terminal transition (see job.notify).
func (s *Service) submit(req Request, fp string, notify func(JobView)) (JobView, error) {
	jb, err := s.newJob(req)
	if err != nil {
		return JobView{}, err
	}
	if fp == "" {
		fp = registry.Fingerprint(req.Graph)
	}
	jb.cacheKey = fp + "|" + jb.spec.CacheKey(jb.params)
	jb.fromBatch, jb.notify = notify != nil, notify
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked([]*job{jb}); err != nil {
		return JobView{}, err
	}
	return jb.view(), nil
}

// newJob validates req and builds its queued job record, minus the cache
// key, which the caller derives from the graph's fingerprint.
func (s *Service) newJob(req Request) (*job, error) {
	spec, ok := registry.Get(req.Algo)
	if !ok {
		return nil, fmt.Errorf("service: unknown algorithm %q", req.Algo)
	}
	if req.Graph == nil {
		return nil, errors.New("service: nil graph")
	}
	params := req.Params.Normalized()
	if err := spec.Validate(params); err != nil {
		return nil, err
	}
	jb := &job{
		traceID: req.TraceID,
		tenant:  req.Tenant,
		spec:    spec,
		g:       req.Graph,
		params:  params,
		timeout: req.Timeout,
		state:   Queued,
	}
	if jb.traceID == "" {
		jb.traceID = obs.NewTraceID()
	}
	if jb.timeout <= 0 {
		jb.timeout = s.cfg.DefaultTimeout
	}
	return jb, nil
}

// admitLocked is the admission step every job passes, alone or as one of a
// group's members (jobs share one tenant): look each up in the result
// cache, push the misses onto the tenant's fair-queue lane all or none,
// then count and register the admitted jobs. Cache hits complete at once
// and never occupy a worker. Must be called with s.mu held.
func (s *Service) admitLocked(jobs []*job) error {
	if s.draining {
		return ErrDraining
	}
	if s.closed {
		return ErrClosed
	}
	var misses []*job
	for _, jb := range jobs {
		if res, hit := s.cache.get(jb.cacheKey); hit {
			jb.cacheHit, jb.result = true, res
		} else {
			misses = append(misses, jb)
		}
	}
	if err := s.queue.push(misses...); err != nil {
		// Only ErrQueueFull gets here: Close and Drain mark the service
		// closed, under s.mu, before they stop the queue.
		if tenant := jobs[0].tenant; tenant != "" {
			s.tenantCounter(tenant).rejected++
		}
		return err
	}
	now := time.Now()
	for _, jb := range jobs {
		jb.submitted = now
		s.met.submitted++
		if jb.fromBatch {
			s.met.batchMembers++
		}
		if jb.tenant != "" {
			s.tenantCounter(jb.tenant).submitted++
		}
		if jb.grp == nil {
			s.nextID++
			jb.id = fmt.Sprintf("j%08d", s.nextID)
			s.jobs[jb.id] = jb
		}
		switch {
		case jb.cacheHit && jb.fromBatch:
			s.met.batchCacheHits++
		case jb.cacheHit:
			s.met.cacheHits++
		case jb.fromBatch:
			s.met.batchCacheMisses++
		default:
			s.met.cacheMisses++
		}
		if !jb.cacheHit {
			s.queued++
			continue
		}
		jb.state = Done
		jb.started = now
		s.met.completed++
		s.markTerminal(jb)
	}
	return nil
}

// Get returns a snapshot of the job with the given ID.
func (s *Service) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return jb.view(), true
}

// Cancel stops a queued or running job. Queued jobs transition to Canceled
// immediately; running jobs have their context canceled and transition once
// the worker observes it. Finished jobs return ErrFinished.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	if jb.state.Terminal() {
		return jb.view(), ErrFinished
	}
	s.cancelLocked(jb)
	return jb.view(), nil
}

// cancelLocked stops a live job: a queued one transitions to Canceled at
// once, a running one has its context canceled and transitions when its
// worker observes it. Must be called with s.mu held.
func (s *Service) cancelLocked(jb *job) {
	switch jb.state {
	case Queued:
		jb.state = Canceled
		s.met.canceled++
		s.queued-- // still in the fair queue; the worker will skip it
		s.markTerminal(jb)
	case Running:
		if jb.cancel != nil {
			jb.cancel()
		}
	}
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	p50, p90, p99 := s.met.percentiles()
	m := Metrics{
		Submitted:        s.met.submitted,
		Completed:        s.met.completed,
		Failed:           s.met.failed,
		Canceled:         s.met.canceled,
		CacheHits:        s.met.cacheHits,
		CacheMisses:      s.met.cacheMisses,
		BatchMembers:     s.met.batchMembers,
		BatchCacheHits:   s.met.batchCacheHits,
		BatchCacheMisses: s.met.batchCacheMisses,
		CacheSize:        s.cache.len(),
		Queued:           s.queued,
		Running:          s.running,
		Workers:          s.cfg.Workers,
		LatencyP50Ms:     p50,
		LatencyP90Ms:     p90,
		LatencyP99Ms:     p99,
	}
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(lookups)
	}
	if lookups := m.BatchCacheHits + m.BatchCacheMisses; lookups > 0 {
		m.BatchCacheHitRate = float64(m.BatchCacheHits) / float64(lookups)
	}
	m.Tenants = s.tenantMetricsLocked()
	return m
}

// tenantMetricsLocked merges the cumulative per-tenant counters with the
// fair queue's live occupancy. Must be called with s.mu held. Returns nil
// when no named tenant has ever submitted (open mode), keeping the JSON
// metrics byte-identical to previous releases.
func (s *Service) tenantMetricsLocked() map[string]TenantMetrics {
	stats := s.queue.stats()
	if len(s.tenantMet) == 0 {
		return nil
	}
	out := make(map[string]TenantMetrics, len(s.tenantMet))
	for name, tc := range s.tenantMet {
		st := stats[name]
		out[name] = TenantMetrics{
			Submitted: tc.submitted,
			Completed: tc.completed,
			Failed:    tc.failed,
			Canceled:  tc.canceled,
			Rejected:  tc.rejected,
			Queued:    st.Queued,
			Running:   st.Running,
		}
	}
	return out
}

// Telemetry returns a snapshot of the engine-telemetry aggregates (round
// and message histograms over live completions). It backs the Prometheus
// exposition and is kept out of the JSON Metrics struct on purpose.
func (s *Service) Telemetry() EngineTelemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.met.engineTelemetry()
}

// Close stops accepting submissions, waits for queued and running jobs
// (group members included) to drain, and releases the worker pool.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.queue.close()
	s.wg.Wait()
}

// Drain stops admission immediately (submissions fail with ErrDraining),
// abandons queued-but-not-started jobs, group members included, and waits
// up to timeout for running jobs to finish. Abandoned jobs were never
// journaled terminal, so a WAL resume after restart re-runs them (and a
// coordinator re-places an abandoned group elsewhere) — this is the SIGTERM
// checkpoint path, where Close's run-everything semantics would block
// shutdown behind an arbitrarily deep backlog. Returns true when all
// in-flight work finished within the timeout. Safe to call more than once
// and after Close.
func (s *Service) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	s.mu.Unlock()
	s.queue.abort()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		jb, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(jb)
		s.queue.release(jb.tenant)
	}
}

func (s *Service) runJob(jb *job) {
	s.mu.Lock()
	if jb.state != Queued { // canceled while waiting; already uncounted
		s.mu.Unlock()
		return
	}
	s.queued--
	jb.state = Running
	jb.started = time.Now()
	if gr := jb.grp; gr != nil {
		gr.state = Running // not terminal while a member runs
		gr.cells[jb.cell].State = Running
	}
	ctx, cancel := context.WithTimeout(context.Background(), jb.timeout)
	jb.cancel = cancel
	s.running++
	// Copy the inputs under the lock: on timeout/cancel markTerminal nils
	// jb.g while the abandoned goroutine may still be computing.
	g, spec, params := jb.g, jb.spec, jb.params
	s.mu.Unlock()
	defer cancel()

	type outcome struct {
		res *registry.Result
		err error
	}
	ch := make(chan outcome, 1)
	// The registry algorithms are synchronous and do not poll the context,
	// so cancellation abandons the computation: the job's state transitions
	// immediately, but the worker stays occupied until the goroutine below
	// returns — otherwise a stream of instantly-timing-out jobs would stack
	// unbounded background computations and defeat the bounded pool. Every
	// algorithm terminates (the simulator enforces a round limit), so the
	// drain always completes.
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("service: algorithm panicked: %v", r)}
			}
		}()
		res, err := spec.Run(g, params)
		ch <- outcome{res: res, err: err}
	}()

	finish := func(out outcome) {
		s.mu.Lock()
		s.running--
		if out.err != nil {
			jb.state = Failed
			jb.err = out.err.Error()
			s.met.failed++
		} else {
			jb.state = Done
			jb.result = out.res
			s.cache.put(jb.cacheKey, out.res)
			s.met.completed++
			// Live completion: fold the run's trace into the engine
			// aggregates (cache hits replay an old trace and are skipped —
			// they did no engine work).
			s.met.recordEngine(traceOf(out.res))
		}
		s.markTerminal(jb)
		if out.err == nil {
			s.met.recordLatency(jb.finished.Sub(jb.started))
		}
		s.mu.Unlock()
	}

	select {
	case out := <-ch:
		finish(out)
	case <-ctx.Done():
		// The computation may have completed in the same instant the
		// deadline fired (or a cancel landed); prefer the finished result
		// over discarding it.
		select {
		case out := <-ch:
			finish(out)
			return
		default:
		}
		s.mu.Lock()
		s.running--
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			jb.state = Failed
			jb.err = fmt.Sprintf("service: job exceeded its %s timeout", jb.timeout)
			s.met.failed++
		} else {
			jb.state = Canceled
			s.met.canceled++
		}
		s.markTerminal(jb)
		s.mu.Unlock()
		<-ch // drain the abandoned computation; see the comment above
	}
}

// view must be called with s.mu held (or on a job not yet shared).
func (j *job) view() JobView {
	return JobView{
		ID:          j.id,
		TraceID:     j.traceID,
		Tenant:      j.tenant,
		Algo:        j.spec.Name,
		Params:      j.params,
		State:       j.state,
		Error:       j.err,
		CacheHit:    j.cacheHit,
		Result:      j.result,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}
