package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
)

func waitGroupTerminal(t *testing.T, s *Service, id string) GroupView {
	t.Helper()
	v, ok := s.WaitGroup(context.Background(), id, 30*time.Second)
	if !ok {
		t.Fatalf("group %s disappeared", id)
	}
	if !v.State.Terminal() {
		t.Fatalf("group %s did not finish", id)
	}
	return v
}

// TestWaitGroupWakes: WaitGroup answers at once for a group that cache hits
// settled inside SubmitGroup, wakes a waiter parked on a running group when
// CancelGroup lands, and gives up when the caller's context is done.
func TestWaitGroupWakes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	started, free := parked(t, "park-waitgroup")
	defer free()
	ctx := context.Background()
	hits := GroupRequest{Algo: "maxis", Graph: smallGraph(4), Seeds: []uint64{1, 2}}

	warm, err := s.SubmitGroup(hits)
	if err != nil {
		t.Fatal(err)
	}
	waitGroupTerminal(t, s, warm.ID)
	hit, err := s.SubmitGroup(hits)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != Done {
		t.Fatalf("an all-hit group is %s after SubmitGroup, want done", hit.State)
	}
	start := time.Now()
	if v, ok := s.WaitGroup(ctx, hit.ID, time.Minute); !ok || v.State != Done {
		t.Fatalf("WaitGroup on a settled group: %+v, %v", v, ok)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("WaitGroup on a settled group took %v", took)
	}

	gv, err := s.SubmitGroup(GroupRequest{Algo: "park-waitgroup", Graph: smallGraph(4), Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	woke := make(chan GroupView, 1)
	go func() {
		v, _ := s.WaitGroup(ctx, gv.ID, time.Minute)
		woke <- v
	}()
	select {
	case v := <-woke:
		t.Fatalf("WaitGroup returned %s before the group could finish", v.State)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := s.CancelGroup(gv.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-woke:
		if v.State != Canceled {
			t.Fatalf("woken waiter sees %s, want canceled", v.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CancelGroup did not wake the parked waiter")
	}

	// The canceled member's computation still holds the one worker, so this
	// group stays queued until the caller gives up.
	queued, err := s.SubmitGroup(GroupRequest{Algo: "maxis", Graph: smallGraph(5), Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if v, ok := s.WaitGroup(cctx, queued.ID, time.Minute); !ok || v.State != Queued {
		t.Fatalf("WaitGroup after its context ended: %+v, %v", v, ok)
	}
	if _, ok := s.WaitGroup(ctx, "g99999999", time.Minute); ok {
		t.Fatal("WaitGroup invented a group")
	}
}

// TestGroupMatchesIndividualRuns pins the grouped path to the per-job one:
// the same (graph, algo, seed) cells must produce identical results whether
// they run grouped on one service or as individual jobs on a fresh service
// whose cache cannot interfere.
func TestGroupMatchesIndividualRuns(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}

	grouped := New(Config{Workers: 2})
	defer grouped.Close()
	gv, err := grouped.SubmitGroup(GroupRequest{
		Algo: "mwm2", Graph: smallGraph(1), Seeds: seeds, TraceID: "tgrp",
	})
	if err != nil {
		t.Fatal(err)
	}
	gv = waitGroupTerminal(t, grouped, gv.ID)
	if gv.State != Done || gv.Done != len(seeds) || gv.Total != len(seeds) {
		t.Fatalf("group state=%s done=%d total=%d, want done/%d/%d", gv.State, gv.Done, gv.Total, len(seeds), len(seeds))
	}

	single := New(Config{Workers: 2})
	defer single.Close()
	for i, seed := range seeds {
		cell := gv.Cells[i]
		if cell.Seed != seed || cell.State != Done || cell.CacheHit {
			t.Fatalf("cell %d: %+v, want live done run of seed %d", i, cell, seed)
		}
		if want := obs.ChildTraceID("tgrp", i); cell.TraceID != want {
			t.Fatalf("cell %d trace %q, want %q", i, cell.TraceID, want)
		}
		jv, err := single.Submit(Request{Algo: "mwm2", Graph: smallGraph(1), Params: registry.Params{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		ref := waitTerminal(t, single, jv.ID)
		if ref.State != Done {
			t.Fatalf("reference run failed: %s %s", ref.State, ref.Error)
		}
		if !reflect.DeepEqual(cell.Result, ref.Result) {
			t.Fatalf("seed %d: grouped result differs from individual run\n%+v\nvs\n%+v", seed, cell.Result, ref.Result)
		}
	}
}

// TestGroupSharesCacheWithJobs proves the two submission paths read and
// write the same LRU: a job warms the cache for a group cell and a group
// warms it for a job.
func TestGroupSharesCacheWithJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	jv, err := s.Submit(Request{Algo: "maxis", Graph: smallGraph(2), Params: registry.Params{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, jv.ID)

	gv, err := s.SubmitGroup(GroupRequest{Algo: "maxis", Graph: smallGraph(2), Seeds: []uint64{7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	gv = waitGroupTerminal(t, s, gv.ID)
	if !gv.Cells[0].CacheHit {
		t.Fatal("seed 7 had just run as a job but the group cell missed the cache")
	}
	if gv.Cells[1].CacheHit {
		t.Fatal("seed 8 never ran but reported a cache hit")
	}

	jv2, err := s.Submit(Request{Algo: "maxis", Graph: smallGraph(2), Params: registry.Params{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if jv2 = waitTerminal(t, s, jv2.ID); !jv2.CacheHit {
		t.Fatal("seed 8 ran inside the group but the job missed the cache")
	}

	m := s.Metrics()
	if m.BatchMembers != 2 || m.BatchCacheHits != 1 || m.BatchCacheMisses != 1 {
		t.Fatalf("group accounting: members=%d hits=%d misses=%d, want 2/1/1", m.BatchMembers, m.BatchCacheHits, m.BatchCacheMisses)
	}
}

// TestGroupCancelMidRun cancels a long group and asserts partial progress is
// kept, the remaining cells drain as canceled, and the group lands Canceled
// with every cell terminal.
func TestGroupCancelMidRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	seeds := make([]uint64, 256)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	gv, err := s.SubmitGroup(GroupRequest{Algo: "maxis", Graph: smallGraph(3), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok := s.GetGroup(gv.ID)
		if !ok {
			t.Fatalf("group %s disappeared", gv.ID)
		}
		if v.Done >= 2 {
			break
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("group finished (state %s, done %d) before the cancel could land", v.State, v.Done)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.CancelGroup(gv.ID); err != nil {
		t.Fatal(err)
	}
	final := waitGroupTerminal(t, s, gv.ID)
	if final.State != Canceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	if final.Done != final.Total {
		t.Fatalf("done %d != total %d after cancel: every cell must be terminal", final.Done, final.Total)
	}
	var done, canceled int
	for _, c := range final.Cells {
		switch c.State {
		case Done:
			done++
		case Canceled:
			canceled++
		default:
			t.Fatalf("cell seed %d left in state %s", c.Seed, c.State)
		}
	}
	if done == 0 || canceled == 0 {
		t.Fatalf("done=%d canceled=%d: want progress before the cancel and cancellation after it", done, canceled)
	}
	if _, err := s.CancelGroup(gv.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("second cancel: %v, want ErrFinished", err)
	}
}

// TestGroupPerSeedTimeoutIsolation gives every seed an impossible timeout:
// each cell must fail individually while the group itself completes Done —
// per-seed failures never poison the group.
func TestGroupPerSeedTimeoutIsolation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	gv, err := s.SubmitGroup(GroupRequest{
		Algo: "maxis", Graph: smallGraph(4), Seeds: []uint64{1, 2}, Timeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitGroupTerminal(t, s, gv.ID)
	if final.State != Done {
		t.Fatalf("group state %s, want done (failures are per-cell)", final.State)
	}
	for i, c := range final.Cells {
		if c.State != Failed || !strings.Contains(c.Error, "timeout") {
			t.Fatalf("cell %d: state=%s err=%q, want per-seed timeout failure", i, c.State, c.Error)
		}
	}
	if m := s.Metrics(); m.Failed != 2 {
		t.Fatalf("failed counter %d, want 2", m.Failed)
	}
}

// TestGroupValidation exercises the submit-time rejections.
func TestGroupValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	g := smallGraph(5)
	cases := []struct {
		name string
		req  GroupRequest
		want string
	}{
		{"unknown algo", GroupRequest{Algo: "nope", Graph: g, Seeds: []uint64{1}}, "unknown algorithm"},
		{"nil graph", GroupRequest{Algo: "maxis", Seeds: []uint64{1}}, "nil graph"},
		{"no seeds", GroupRequest{Algo: "maxis", Graph: g}, "no seeds"},
		{"trace mismatch", GroupRequest{Algo: "maxis", Graph: g, Seeds: []uint64{1, 2}, Traces: []string{"only-one"}}, "traces for"},
		{"bad params", GroupRequest{Algo: "mcm-oneeps", Graph: g, Seeds: []uint64{1}, Params: registry.Params{Eps: -1}}, "eps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.SubmitGroup(tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	if _, ok := s.GetGroup("g99999999"); ok {
		t.Fatal("GetGroup invented a group")
	}
	if _, err := s.CancelGroup("g99999999"); !errors.Is(err, ErrGroupNotFound) {
		t.Fatalf("cancel of unknown group: %v, want ErrGroupNotFound", err)
	}
}

// parked registers a blocker algorithm and returns its started channel and
// an idempotent release. Callers defer it after their deferred Close, as
// registerBlocker asks.
func parked(t *testing.T, name string) (started chan struct{}, free func()) {
	t.Helper()
	started, release := registerBlocker(t, name)
	var once sync.Once
	return started, func() { once.Do(func() { close(release) }) }
}

// noSecondStart fails the test if another parked run starts within a
// grace period.
func noSecondStart(t *testing.T, started chan struct{}, why string) {
	t.Helper()
	select {
	case <-started:
		t.Fatal(why)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestGroupSharesTheWorkerBound: group seeds wait in the queue jobs wait
// in, so a one-worker service given a parked job and a parked one-seed
// group never runs two algorithms at once.
func TestGroupSharesTheWorkerBound(t *testing.T) {
	started, free := parked(t, "park-bound")
	s := New(Config{Workers: 1})
	defer s.Close()
	defer free()

	jv, err := s.Submit(Request{Algo: "park-bound", Graph: smallGraph(1)})
	if err != nil {
		t.Fatal(err)
	}
	gv, err := s.SubmitGroup(GroupRequest{Algo: "park-bound", Graph: smallGraph(2), Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	noSecondStart(t, started, "a second algorithm started beside the parked one on a one-worker service")
	if m := s.Metrics(); m.Running != 1 || m.Queued != 1 {
		t.Fatalf("running=%d queued=%d, want 1/1", m.Running, m.Queued)
	}
	free()
	if v := waitTerminal(t, s, jv.ID); v.State != Done {
		t.Fatalf("job %s", v.State)
	}
	if v := waitGroupTerminal(t, s, gv.ID); v.State != Done {
		t.Fatalf("group %s", v.State)
	}
}

// TestGroupAdmissionAllOrNone: a group whose cache misses do not all fit
// the tenant's queue is refused whole with ErrQueueFull and counted as the
// tenant's rejection, a group larger than the queue bound is refused as
// never admissible, and an admitted group's seeds count in the tenant's
// row.
func TestGroupAdmissionAllOrNone(t *testing.T) {
	started, free := parked(t, "park-admit")
	s := New(Config{Workers: 1, TenantLimits: func(string) TenantLimits { return TenantLimits{QueueSize: 2} }})
	defer s.Close()
	defer free()

	// Park the worker, then take one of the tenant's two queue slots.
	for i := uint64(1); i <= 2; i++ {
		if _, err := s.Submit(Request{Algo: "park-admit", Graph: smallGraph(i), Tenant: "t"}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			<-started
		}
	}
	before := s.Metrics()
	if _, err := s.SubmitGroup(GroupRequest{Algo: "maxis", Graph: smallGraph(3), Seeds: []uint64{1, 2}, Tenant: "t"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("two seeds for one free slot: %v, want ErrQueueFull", err)
	}
	after := s.Metrics()
	if after.Submitted != before.Submitted || after.Queued != before.Queued || after.BatchMembers != 0 {
		t.Fatalf("refused group admitted members: submitted %d→%d queued %d→%d members %d",
			before.Submitted, after.Submitted, before.Queued, after.Queued, after.BatchMembers)
	}
	if tm := after.Tenants["t"]; tm.Rejected != 1 || tm.Submitted != 2 || tm.Queued != 1 {
		t.Fatalf("tenant row after refusal %+v, want rejected 1, submitted 2, queued 1", tm)
	}
	if _, err := s.SubmitGroup(GroupRequest{Algo: "maxis", Graph: smallGraph(3), Seeds: []uint64{1, 2, 3}, Tenant: "t"}); err == nil || errors.Is(err, ErrQueueFull) {
		t.Fatalf("three seeds against a queue bound of two: %v, want a non-retryable error", err)
	}

	gv, err := s.SubmitGroup(GroupRequest{Algo: "maxis", Graph: smallGraph(3), Seeds: []uint64{1}, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	free()
	if v := waitGroupTerminal(t, s, gv.ID); v.State != Done || v.Tenant != "t" {
		t.Fatalf("admitted group: state %s tenant %q", v.State, v.Tenant)
	}
	if tm := s.Metrics().Tenants["t"]; tm.Submitted != 3 || tm.Rejected != 1 {
		t.Fatalf("tenant row %+v, want submitted 3 (two jobs, one seed), rejected 1", tm)
	}
}

// TestGroupHonoursTenantCellCap: group seeds run under the tenant's
// concurrent-running cap (cells=) even with a worker free.
func TestGroupHonoursTenantCellCap(t *testing.T) {
	started, free := parked(t, "park-cells")
	s := New(Config{Workers: 2, TenantLimits: func(string) TenantLimits { return TenantLimits{MaxRunning: 1} }})
	defer s.Close()
	defer free()

	gv, err := s.SubmitGroup(GroupRequest{Algo: "park-cells", Graph: smallGraph(1), Seeds: []uint64{1, 2}, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	noSecondStart(t, started, "a second seed started past the tenant's one-cell cap")
	if tm := s.Metrics().Tenants["t"]; tm.Submitted != 2 || tm.Running != 1 || tm.Queued != 1 {
		t.Fatalf("tenant row %+v, want submitted 2, running 1, queued 1", tm)
	}
	free()
	if v := waitGroupTerminal(t, s, gv.ID); v.State != Done {
		t.Fatalf("group %s", v.State)
	}
	if tm := s.Metrics().Tenants["t"]; tm.Completed != 2 {
		t.Fatalf("tenant completed %d, want 2", tm.Completed)
	}
}
