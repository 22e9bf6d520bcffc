package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
)

// This file is the worker-side grouped submission behind POST /v1/jobgroups
// (DESIGN.md §6a): one submission runs a whole seed-axis group — same graph,
// same algorithm and parameters, N seeds — against a single graph lookup and
// fingerprint, paying the per-job wire and bookkeeping overhead once instead
// of N times. A group is a set of member jobs: its seeds are admitted all or
// none through the step Submit uses, then run on the shared worker pool
// under the tenant's fair-queue limits like any other job. Members have no
// job ID and never enter the job map; each leaves only its GroupCellView on
// the group when it finishes.
//
// Accounting contract: every seed flows through the same counters a
// batch-member job does (submitted, batch_members, batch cache hits/misses,
// completed/failed/canceled, engine telemetry, latency, the tenant's row) so
// fleet-level metric sums are identical whether cells arrive grouped or one
// at a time.

// MaxGroupSeeds bounds the seeds one group may carry; the HTTP layer
// surfaces violations as 400s.
const MaxGroupSeeds = 4096

// ErrGroupNotFound reports an unknown group ID.
var ErrGroupNotFound = errors.New("service: no such job group")

// GroupRequest describes one grouped submission: Params is the shared base
// (its Seed field is ignored) and Seeds supplies the per-cell randomness.
type GroupRequest struct {
	// Algo names a registered algorithm.
	Algo string
	// Graph is the shared input graph; the service takes ownership as with
	// Request.Graph.
	Graph *graph.Graph
	// Params configures every run; Params.Seed is overwritten per cell.
	Params registry.Params
	// Seeds lists the per-cell seeds, one run each, in order.
	Seeds []uint64
	// Traces optionally carries one trace ID per seed (the coordinator's
	// batch-cell child IDs). Empty means IDs are derived from TraceID.
	Traces []string
	// Timeout bounds each run, not the whole group (0 = Config.DefaultTimeout).
	Timeout time.Duration
	// TraceID identifies the group; empty means the service generates one.
	TraceID string
	// Tenant is the submitting tenant's ID ("" = anonymous). It selects the
	// fair-share lane every seed is admitted to, as for Request.Tenant, and
	// scopes visibility at the HTTP layer.
	Tenant string
}

// GroupCellView is an immutable snapshot of one seed's run inside a group.
type GroupCellView struct {
	Seed     uint64
	TraceID  string
	State    State
	CacheHit bool
	Error    string
	Result   *registry.Result
}

// GroupView is an immutable snapshot of a job group.
type GroupView struct {
	ID          string
	TraceID     string
	Tenant      string
	Algo        string
	Params      registry.Params
	State       State
	Total       int
	Done        int
	Cells       []GroupCellView
	SubmittedAt time.Time
	FinishedAt  time.Time
}

type group struct {
	id      string
	traceID string
	tenant  string
	algo    string
	params  registry.Params

	state State
	cells []GroupCellView
	// members[i] is cell i's job until it is terminal, then nil.
	members   []*job
	done      int // terminal cells
	canceled  bool
	submitted time.Time
	finished  time.Time
	// doneCh is closed when the group finalizes; WaitGroup parks on it.
	doneCh chan struct{}
}

// SubmitGroup validates the group, fingerprints its graph once and admits
// every seed as a member job, all or none: a tenant queue that cannot take
// the group's cache misses refuses it with ErrQueueFull, and a group with
// more seeds than the tenant's queue bound, which could never be admitted,
// is an error of its own.
func (s *Service) SubmitGroup(req GroupRequest) (GroupView, error) {
	if len(req.Seeds) == 0 {
		return GroupView{}, errors.New("service: job group has no seeds")
	}
	if len(req.Seeds) > MaxGroupSeeds {
		return GroupView{}, fmt.Errorf("service: job group has %d seeds, max %d", len(req.Seeds), MaxGroupSeeds)
	}
	if len(req.Traces) != 0 && len(req.Traces) != len(req.Seeds) {
		return GroupView{}, fmt.Errorf("service: %d traces for %d seeds", len(req.Traces), len(req.Seeds))
	}
	trace := req.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	base, err := s.newJob(Request{Algo: req.Algo, Graph: req.Graph, Params: req.Params,
		Timeout: req.Timeout, TraceID: trace, Tenant: req.Tenant})
	if err != nil {
		return GroupView{}, err
	}
	if bound := s.queue.bound(req.Tenant); len(req.Seeds) > bound {
		return GroupView{}, fmt.Errorf("service: job group has %d seeds, tenant queue bound %d", len(req.Seeds), bound)
	}
	gr := &group{
		traceID: trace,
		tenant:  req.Tenant,
		algo:    base.spec.Name,
		params:  base.params,
		state:   Queued,
		cells:   make([]GroupCellView, len(req.Seeds)),
		members: make([]*job, len(req.Seeds)),
		doneCh:  make(chan struct{}),
	}
	fp := registry.Fingerprint(req.Graph)
	for i, seed := range req.Seeds {
		cellTrace := obs.ChildTraceID(trace, i)
		if len(req.Traces) != 0 {
			cellTrace = req.Traces[i]
		}
		gr.cells[i] = GroupCellView{Seed: seed, TraceID: cellTrace, State: Queued}
		jb := *base
		jb.params.Seed = seed
		jb.cacheKey = fp + "|" + jb.spec.CacheKey(jb.params)
		jb.traceID = cellTrace
		jb.fromBatch = true
		jb.grp, jb.cell = gr, i
		gr.members[i] = &jb
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextGroupID++
	gr.id = fmt.Sprintf("g%08d", s.nextGroupID)
	gr.submitted = time.Now()
	// Registered before admission: cache hits settle during it, and the
	// last one finalizes the group into the retention ring.
	s.groups[gr.id] = gr
	if err := s.admitLocked(gr.members); err != nil {
		delete(s.groups, gr.id)
		return GroupView{}, err
	}
	return gr.view(), nil
}

// settleMemberLocked records member jb's terminal outcome on its group and
// finalizes the group with its last cell. Must be called with s.mu held.
func (s *Service) settleMemberLocked(jb *job) {
	gr := jb.grp
	c := &gr.cells[jb.cell]
	c.State, c.CacheHit, c.Error, c.Result = jb.state, jb.cacheHit, jb.err, jb.result
	gr.members[jb.cell] = nil
	gr.done++
	if gr.done < len(gr.cells) {
		return
	}
	gr.members = nil
	gr.state = Done
	if gr.canceled {
		gr.state = Canceled
	}
	gr.finished = time.Now()
	close(gr.doneCh)
	s.terminalGroups = append(s.terminalGroups, gr.id)
	for len(s.terminalGroups) > s.cfg.MaxJobs {
		delete(s.groups, s.terminalGroups[0])
		s.terminalGroups = s.terminalGroups[1:]
	}
}

// GetGroup returns a snapshot of the group with the given ID.
func (s *Service) GetGroup(id string) (GroupView, bool) {
	return s.WaitGroup(context.Background(), id, 0)
}

// WaitGroup blocks until the group with the given ID is terminal, d has
// elapsed or ctx is done, then returns its snapshot — the long-poll behind
// GET /v1/jobgroups/{id}?wait=. A group that cache hits settled inside
// SubmitGroup, or that is already finished, returns at once. The second
// result is false when the group does not exist.
func (s *Service) WaitGroup(ctx context.Context, id string, d time.Duration) (GroupView, bool) {
	s.mu.Lock()
	gr, ok := s.groups[id]
	s.mu.Unlock()
	if !ok {
		return GroupView{}, false
	}
	if d > 0 {
		t := time.NewTimer(d)
		select {
		case <-gr.doneCh:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	// The group may have left the retention ring meanwhile; the pointer
	// still renders its final snapshot.
	s.mu.Lock()
	defer s.mu.Unlock()
	return gr.view(), true
}

// CancelGroup stops a queued or running group: queued seeds transition to
// Canceled at once, running ones are abandoned like canceled jobs, and the
// group lands Canceled with its last cell. Finished groups return
// ErrFinished.
func (s *Service) CancelGroup(id string) (GroupView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gr, ok := s.groups[id]
	if !ok {
		return GroupView{}, ErrGroupNotFound
	}
	if gr.state.Terminal() {
		return gr.view(), ErrFinished
	}
	gr.canceled = true
	for _, jb := range gr.members {
		if jb != nil {
			s.cancelLocked(jb)
		}
	}
	return gr.view(), nil
}

// view must be called with s.mu held.
func (gr *group) view() GroupView {
	return GroupView{
		ID:          gr.id,
		TraceID:     gr.traceID,
		Tenant:      gr.tenant,
		Algo:        gr.algo,
		Params:      gr.params,
		State:       gr.state,
		Total:       len(gr.cells),
		Done:        gr.done,
		Cells:       slices.Clone(gr.cells),
		SubmittedAt: gr.submitted,
		FinishedAt:  gr.finished,
	}
}
