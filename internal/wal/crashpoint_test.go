package wal_test

// Crash-point injection harness: for every boundary wal.CrashPoints()
// enumerates, simulate the process dying there underneath the REAL consumers
// (the durable graph store, and the batch engine's ledger), restart the
// stack on the same directories, and check the recovery contract:
//
//   - consistent prefix: the recovered state corresponds to a prefix of the
//     operation sequence, containing at least every acknowledged operation
//     (an unacknowledged-but-durable tail entry is allowed — that is what
//     "crashed after write(2) returned" means — phantom or reordered state
//     is not);
//   - bit-identical committed results: restored finished cells carry the
//     same results an uninterrupted run produces;
//   - zero leaked pins: once every recovered batch is terminal, the graphs
//     it pinned can be deleted;
//   - no re-execution: the restarted service runs exactly the cells the
//     ledger did not already hold finished.
//
// The tests iterate wal.CrashPoints() and fail loudly if a point never
// fires, so a new boundary added to the write path is automatically covered
// here or flagged as uncovered.

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wal"
)

// crashOnce builds hooks that kill the log the first time the write path
// reaches point, and a flag recording whether the point was ever reached.
func crashOnce(point string) (*wal.TestHooks, *atomic.Bool) {
	fired := &atomic.Bool{}
	return &wal.TestHooks{CrashAt: func(p string) bool {
		return p == point && fired.CompareAndSwap(false, true)
	}}, fired
}

func waitBatchTerminal(t *testing.T, b *service.Batches, id string) service.BatchView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := b.Wait(context.Background(), id, 100*time.Millisecond)
		if !ok {
			t.Fatalf("batch %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("batch %s never finished", id)
	return service.BatchView{}
}

// pollDelete retries st.Delete(name) until it succeeds: pin releases race
// the terminal transition by a scheduler beat, never longer.
func pollDelete(t *testing.T, st *store.Store, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = st.Delete(name); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("pin leaked: delete %q kept failing: %v", name, err)
}

// TestCrashPointsStore drives the durable graph store into a simulated
// process death at every crash point, restarts it on the same directories,
// and checks the recovered bindings are a consistent prefix of the
// operation sequence.
func TestCrashPointsStore(t *testing.T) {
	type op struct {
		del  bool
		name string
	}
	ops := []op{
		{name: "g0"}, {name: "g1"}, {name: "g2"}, {name: "g3"}, {name: "g4"},
		{del: true, name: "g0"},
	}
	// prefixes[k] is the expected name set after the first k ops.
	prefixes := make([]map[string]bool, len(ops)+1)
	prefixes[0] = map[string]bool{}
	for k, o := range ops {
		next := make(map[string]bool, len(prefixes[k])+1)
		for n := range prefixes[k] {
			next[n] = true
		}
		if o.del {
			delete(next, o.name)
		} else {
			next[o.name] = true
		}
		prefixes[k+1] = next
	}

	for _, point := range wal.CrashPoints() {
		t.Run(point, func(t *testing.T) {
			root := t.TempDir()
			hooks, fired := crashOnce(point)
			st, err := store.Open(store.Config{
				WALDir:          filepath.Join(root, "wal"),
				SpillDir:        filepath.Join(root, "spill"),
				SnapshotEvery:   2,  // snapshot points fire on the second record
				WALSegmentBytes: 96, // rotation points fire within a few records
				WALHooks:        hooks,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Run the sequence until the injected death; everything the
			// store acknowledges before it must survive the restart.
			acked := 0
			fps := map[string]string{}
			for _, o := range ops {
				var err error
				if o.del {
					err = st.Delete(o.name)
				} else {
					var info store.Info
					info, _, err = st.Put(o.name, store.Source{
						Gen:       "gnp",
						GenParams: registry.GenParams{N: 24, P: 0.2, Seed: uint64(len(fps) + 1), MaxW: 16},
					})
					if err == nil {
						fps[o.name] = info.Fingerprint
					}
				}
				if err != nil {
					if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("op %+v failed with a non-crash error: %v", o, err)
					}
					break
				}
				acked++
			}
			if !fired.Load() {
				t.Fatalf("crash point %s never fired: the harness does not cover it", point)
			}
			st.Close() // tolerates the crashed log

			st2, err := store.Open(store.Config{
				WALDir:   filepath.Join(root, "wal"),
				SpillDir: filepath.Join(root, "spill"),
			})
			if err != nil {
				t.Fatalf("restart after %s: %v", point, err)
			}
			defer st2.Close()
			got := map[string]bool{}
			for _, info := range st2.List() {
				got[info.Name] = true
				if want, ok := fps[info.Name]; ok && info.Fingerprint != want {
					t.Fatalf("%s fingerprint changed across restart: %s != %s", info.Name, info.Fingerprint, want)
				}
			}
			matched := -1
			for k := acked; k < len(prefixes); k++ {
				if equalSet(got, prefixes[k]) {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("recovered state %v is not a consistent prefix: acked %d ops", got, acked)
			}
			// The recovered names must answer Acquire (spill files intact).
			for name := range got {
				g, release, err := st2.Acquire(name)
				if err != nil || g.N() == 0 {
					t.Fatalf("recovered %s not acquirable: %v", name, err)
				}
				release()
			}
		})
	}
}

func equalSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestCrashPointsBatchLedger drives the batch ledger into a simulated
// process death at every crash point while a 4-cell batch runs, restarts
// the full stack, lets any resumed batch converge, and compares it against
// an uninterrupted reference run.
func TestCrashPointsBatchLedger(t *testing.T) {
	spec := service.BatchSpec{
		Graphs: []string{"g"},
		Algos:  []string{"maxis", "mwm2"},
		Seeds:  []uint64{4, 5},
	}
	putG := func(t *testing.T, st *store.Store) {
		t.Helper()
		if _, _, err := st.Put("g", store.Source{
			Gen:       "gnp",
			GenParams: registry.GenParams{N: 30, P: 0.25, Seed: 9, MaxW: 16},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Uninterrupted reference run (non-durable stack, same spec): the
	// yardstick every restarted batch must match bit for bit.
	refSvc := service.New(service.Config{Workers: 2, QueueSize: 64})
	defer refSvc.Close()
	refStore := store.New(store.Config{})
	putG(t, refStore)
	refB := service.NewBatches(refSvc, refStore, service.BatchConfig{})
	refSub, err := refB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitBatchTerminal(t, refB, refSub.ID)
	if ref.Done != ref.Total {
		t.Fatalf("reference run did not finish cleanly: %+v", ref)
	}

	for _, point := range wal.CrashPoints() {
		t.Run(point, func(t *testing.T) {
			root := t.TempDir()
			storeCfg := store.Config{
				WALDir:   filepath.Join(root, "store-wal"),
				SpillDir: filepath.Join(root, "spill"),
			}
			st, err := store.Open(storeCfg)
			if err != nil {
				t.Fatal(err)
			}
			putG(t, st)
			svc := service.New(service.Config{Workers: 2, QueueSize: 64})
			hooks, fired := crashOnce(point)
			b, err := service.OpenBatches(svc, st, service.BatchConfig{
				WALDir:          filepath.Join(root, "batch-wal"),
				SnapshotEvery:   2,
				WALSegmentBytes: 96,
				WALHooks:        hooks,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Submit and run to in-memory completion. The ledger dies at the
			// injected point somewhere along the way: Submit's synchronous
			// commit may fail (the batch then never exists), or an async
			// cell/terminal record is lost — both are legitimate crashes the
			// restart below must absorb.
			v, err := b.Submit(spec)
			submitted := err == nil
			if err != nil && !errors.Is(err, wal.ErrCrashed) {
				t.Fatal(err)
			}
			if submitted {
				waitBatchTerminal(t, b, v.ID)
			}
			// The async writer reaches every remaining point on its own
			// clock; Close flushes it (and tolerates the crashed log).
			svc.Close()
			b.Close()
			if !fired.Load() {
				t.Fatalf("crash point %s never fired: the harness does not cover it", point)
			}
			st.Close()

			// Restart the full stack on the same directories, hook-free.
			st2, err := store.Open(storeCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			svc2 := service.New(service.Config{Workers: 2, QueueSize: 64})
			defer svc2.Close()
			b2, err := service.OpenBatches(svc2, st2, service.BatchConfig{
				WALDir: filepath.Join(root, "batch-wal"),
			})
			if err != nil {
				t.Fatalf("restart after %s: %v", point, err)
			}
			defer b2.Close()

			after, recovered := b2.Get(v.ID)
			if submitted && !recovered && svc2.Metrics().Submitted > 0 {
				t.Fatal("jobs ran for a batch the ledger does not know")
			}
			if recovered {
				after = waitBatchTerminal(t, b2, after.ID)
				if after.State != service.BatchDone || after.Done != ref.Total {
					t.Fatalf("recovered batch did not converge: %+v", after)
				}
				if after.TraceID != v.TraceID {
					t.Fatalf("trace ID changed across restart: %s != %s", after.TraceID, v.TraceID)
				}
				for i := range ref.Cells {
					rc, ac := ref.Cells[i], after.Cells[i]
					if ac.Graph != rc.Graph || ac.Algo != rc.Algo || ac.Params.Seed != rc.Params.Seed {
						t.Fatalf("cell %d identity differs from reference: %+v vs %+v", i, ac, rc)
					}
					if ac.Result == nil || ac.Result.Weight != rc.Result.Weight || ac.Result.Size() != rc.Result.Size() {
						t.Fatalf("cell %d result differs from the uninterrupted run", i)
					}
				}
				for i := range ref.Groups {
					rg, ag := ref.Groups[i], after.Groups[i]
					if ag.Weight != rg.Weight || ag.Size != rg.Size || ag.Done != rg.Done {
						t.Fatalf("group %d aggregates differ from reference: %+v vs %+v", i, ag, rg)
					}
				}
				// No re-execution: the restart ran exactly the cells the
				// ledger did not already hold finished.
				lm, ok := b2.LedgerMetrics()
				if !ok {
					t.Fatal("durable engine reports no ledger metrics")
				}
				if got, want := svc2.Metrics().Submitted, uint64(ref.Total)-lm.CellsRestored; got != want {
					t.Fatalf("restart submitted %d jobs, want %d (restored %d of %d)", got, want, lm.CellsRestored, ref.Total)
				}
			}
			// Zero leaked pins either way: the graph must be deletable once
			// everything recovered is terminal.
			pollDelete(t, st2, "g")
		})
	}
}
