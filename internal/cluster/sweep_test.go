package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

// runSweep executes one experiment against an API endpoint and returns the
// rendered CSV bytes.
func runSweep(t *testing.T, c *httpapi.Client, exp string, trials int) []byte {
	t.Helper()
	p, err := sweep.Build(exp, trials)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Execute(context.Background(), c, exp, p); err != nil {
		t.Fatalf("%s: %v", exp, err)
	}
	var buf bytes.Buffer
	if err := p.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepCSVByteIdenticalAcrossTopologies is the tentpole acceptance
// criterion: every DESIGN.md §5 experiment produces byte-identical CSVs
// whether cmd/sweep talks to a single-node server or a 3-worker cluster
// coordinator — sharding is invisible to results.
func TestSweepCSVByteIdenticalAcrossTopologies(t *testing.T) {
	// Single-node reference stack.
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	st := store.New(store.Config{MaxGraphs: 1024})
	batches := service.NewBatches(svc, st, service.BatchConfig{})
	single := httptest.NewServer(httpapi.NewHandler(svc, st, batches))
	t.Cleanup(single.Close)
	singleClient := httpapi.NewClient(single.URL, nil)

	// 3-worker cluster behind the coordinator handler.
	coord, _ := newFleet(t, 3, func(cfg *Config) {
		cfg.Window = 4
		cfg.MaxGraphs = 1024
	})
	cl := httptest.NewServer(httpapi.NewClusterHandler(coord))
	t.Cleanup(cl.Close)
	clusterClient := httpapi.NewClient(cl.URL, nil)

	const trials = 1
	for _, exp := range sweep.Experiments() {
		want := runSweep(t, singleClient, exp, trials)
		got := runSweep(t, clusterClient, exp, trials)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: cluster CSV differs from single-node\nsingle:\n%s\ncluster:\n%s", exp, want, got)
		}
	}
}
