package cluster

import (
	"testing"
	"time"

	"repro/internal/service"
)

// TestSlowOwnerDispatchesOnce pins "slow is not down" (DESIGN.md §6a): every
// response from the graph's owner is delayed, but well inside the request
// timeout, so the batch must complete on that owner with results identical
// to a single-node run, each cell dispatched exactly once, zero worker
// failures, and no leaked graph pins.
func TestSlowOwnerDispatchesOnce(t *testing.T) {
	graphs := []namedSource{{"slow-g", gnpSource(60, 0.1, 71, 32)}}
	spec := service.BatchSpec{
		Graphs: []string{"slow-g"},
		Algos:  []string{"mwm2", "maxis"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	want := singleNodeRun(t, graphs, spec)
	if want.State != service.BatchDone || want.Done != want.Total {
		t.Fatalf("reference run %+v", want)
	}

	coord, workers := newFleet(t, 2, func(cfg *Config) { cfg.GroupSize = 4 })
	putGen(t, coord, "slow-g", graphs[0].src)

	// Slow down the graph's owner only: with one graph the placement view
	// names exactly one worker.
	view := coord.View()
	if len(view.Placements) != 1 || view.Placements[0].Worker == "" {
		t.Fatalf("placements %+v", view.Placements)
	}
	owner := findWorker(t, workers, view.Placements[0].Worker)
	owner.proxy.delay = 150 * time.Millisecond
	owner.proxy.set(faultSlow)

	fin := clusterRun(t, coord, nil, spec)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch on a slow owner: %+v", fin)
	}
	if d := coord.cellsDispatched.Load(); d != uint64(fin.Total) {
		t.Fatalf("cells dispatched %d, want exactly %d", d, fin.Total)
	}
	if n := coord.workerFailures.Load(); n != 0 {
		t.Fatalf("%d worker failures on a merely slow fleet", n)
	}

	assertSameOutcomes(t, want, fin)

	// Zero leaked pins: with the batch terminal the graph must be deletable.
	if err := coord.DeleteGraph("slow-g"); err != nil {
		t.Fatalf("delete after slow batch: %v", err)
	}
}
