package service

import "sync"

// This file is the fair-share admission queue in front of the worker pool
// (DESIGN.md §9). The engine used to feed workers from one shared channel,
// which made admission first-come-first-served: a tenant submitting a
// 10⁶-cell batch filled the channel and starved every later submitter until
// the backlog drained. The fairQueue replaces the channel with per-tenant
// FIFOs served by weighted deficit round-robin (DRR): each visit a tenant's
// deficit is refilled to its weight and one job is served per deficit unit,
// so long-run throughput divides by weight regardless of backlog sizes, and
// per-tenant queue bounds turn ErrQueueFull into per-tenant backpressure
// instead of a shared fate.

// TenantLimits caps one tenant's admission footprint. The zero value means
// "server defaults": weight 1, the shared Config.QueueSize bound, and no
// concurrent-running cap.
type TenantLimits struct {
	// Weight is the DRR quantum: jobs served per round-robin visit while
	// the tenant has backlog. 0 → 1.
	Weight int
	// MaxRunning caps how many of the tenant's jobs may occupy workers at
	// once (the concurrent-cell quota). 0 → unlimited.
	MaxRunning int
	// QueueSize bounds the tenant's admitted-but-not-running backlog;
	// pushes beyond it fail with ErrQueueFull. 0 → Config.QueueSize.
	QueueSize int
}

// TenantQueueStat is the live per-tenant occupancy exported via Metrics.
type TenantQueueStat struct {
	Queued  int
	Running int
}

// tenantQueue is one tenant's FIFO plus its DRR accounting.
type tenantQueue struct {
	jobs    []*job
	head    int // pop index; the slice is compacted when fully drained
	deficit int
	running int
}

func (t *tenantQueue) size() int { return len(t.jobs) - t.head }

func (t *tenantQueue) popFront() *job {
	jb := t.jobs[t.head]
	t.jobs[t.head] = nil
	t.head++
	if t.head == len(t.jobs) {
		t.jobs = t.jobs[:0]
		t.head = 0
	}
	return jb
}

// fairQueue multiplexes per-tenant FIFOs onto the worker pool with DRR.
// It has two stop modes: close() admits nothing new but lets workers drain
// every queued job (Close semantics), abort() additionally makes pop return
// immediately so queued jobs are abandoned un-run (Drain semantics — such
// jobs were never journaled terminal, so a WAL resume re-runs them).
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	limits       func(string) TenantLimits // nil → zero limits
	defaultQueue int

	tenants map[string]*tenantQueue
	order   []string // round-robin visiting order; pruned when a tenant idles
	cur     int      // next order index the DRR scan starts at
	total   int      // queued jobs across all tenants
	closed  bool
	aborted bool
}

func newFairQueue(defaultQueue int, limits func(string) TenantLimits) *fairQueue {
	fq := &fairQueue{
		limits:       limits,
		defaultQueue: defaultQueue,
		tenants:      make(map[string]*tenantQueue),
	}
	fq.cond = sync.NewCond(&fq.mu)
	return fq
}

func (fq *fairQueue) limitsFor(tenant string) TenantLimits {
	if fq.limits == nil {
		return TenantLimits{}
	}
	return fq.limits(tenant)
}

// push admits jbs, which share a tenant, to that tenant's FIFO, all or
// none. It returns ErrQueueFull when they do not all fit under the tenant's
// backlog bound and ErrClosed after close/abort.
func (fq *fairQueue) push(jbs ...*job) error {
	if len(jbs) == 0 {
		return nil
	}
	tenant := jbs[0].tenant
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed || fq.aborted {
		return ErrClosed
	}
	t := fq.tenants[tenant]
	if t == nil {
		t = &tenantQueue{}
		fq.tenants[tenant] = t
		fq.order = append(fq.order, tenant)
	}
	if t.size()+len(jbs) > fq.bound(tenant) {
		return ErrQueueFull
	}
	t.jobs = append(t.jobs, jbs...)
	fq.total += len(jbs)
	fq.cond.Broadcast()
	return nil
}

// bound is the tenant's backlog bound.
func (fq *fairQueue) bound(tenant string) int {
	if b := fq.limitsFor(tenant).QueueSize; b > 0 {
		return b
	}
	return fq.defaultQueue
}

// pop blocks until a job is dispatchable and returns it, or returns false
// when the queue is stopped (closed and fully drained, or aborted). The
// caller owns one running slot for the job's tenant until release.
func (fq *fairQueue) pop() (*job, bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for {
		if fq.aborted {
			return nil, false
		}
		if fq.total > 0 {
			if jb, ok := fq.scan(); ok {
				return jb, true
			}
			// Backlog exists but every backlogged tenant is at its running
			// cap; wait for a release.
		} else if fq.closed {
			return nil, false
		}
		fq.cond.Wait()
	}
}

// scan is one DRR pass over the visiting order, starting at the cursor.
// Caller holds fq.mu.
func (fq *fairQueue) scan() (*job, bool) {
	n := len(fq.order)
	if fq.cur >= n {
		fq.cur = 0
	}
	for i := 0; i < n; i++ {
		idx := (fq.cur + i) % n
		t := fq.tenants[fq.order[idx]]
		if t.size() == 0 {
			continue
		}
		lim := fq.limitsFor(fq.order[idx])
		if lim.MaxRunning > 0 && t.running >= lim.MaxRunning {
			continue
		}
		if t.deficit <= 0 {
			t.deficit = lim.Weight
			if t.deficit <= 0 {
				t.deficit = 1
			}
		}
		jb := t.popFront()
		t.deficit--
		t.running++
		fq.total--
		if t.deficit <= 0 || t.size() == 0 {
			// Quantum spent (or backlog empty): move on so the next pop
			// visits the next tenant.
			t.deficit = 0
			fq.cur = (idx + 1) % n
		} else {
			fq.cur = idx
		}
		return jb, true
	}
	return nil, false
}

// release returns jb's running slot. Workers call it exactly once per pop,
// whether the job ran or was skipped as already-canceled.
func (fq *fairQueue) release(tenant string) {
	fq.mu.Lock()
	if t := fq.tenants[tenant]; t != nil {
		t.running--
		if t.size() == 0 && t.running <= 0 {
			delete(fq.tenants, tenant)
			for i, name := range fq.order {
				if name == tenant {
					fq.order = append(fq.order[:i], fq.order[i+1:]...)
					if fq.cur > i {
						fq.cur--
					}
					break
				}
			}
		}
	}
	fq.cond.Broadcast()
	fq.mu.Unlock()
}

// close stops admission; pops continue until the backlog drains.
func (fq *fairQueue) close() {
	fq.mu.Lock()
	fq.closed = true
	fq.cond.Broadcast()
	fq.mu.Unlock()
}

// abort stops admission and dispatch: blocked pops return immediately and
// queued jobs are left behind for a WAL resume to re-run.
func (fq *fairQueue) abort() {
	fq.mu.Lock()
	fq.closed = true
	fq.aborted = true
	fq.cond.Broadcast()
	fq.mu.Unlock()
}

// stats snapshots per-tenant occupancy. Only tenants with live state appear.
func (fq *fairQueue) stats() map[string]TenantQueueStat {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if len(fq.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantQueueStat, len(fq.tenants))
	for name, t := range fq.tenants {
		out[name] = TenantQueueStat{Queued: t.size(), Running: t.running}
	}
	return out
}
