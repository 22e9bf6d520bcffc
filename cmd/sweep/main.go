// Command sweep emits CSV parameter sweeps for the experiments in
// DESIGN.md §5: round complexity and approximation ratio as functions of n,
// W, ∆ and ε. The sweep engine lives in internal/sweep and is a thin client
// of the served batch API (internal/httpapi): each experiment uploads its
// graphs to the named graph store (fingerprint-deduplicated), submits one
// batch of explicit cells, streams its results as they settle (resuming a
// broken stream from its cell cursor), and renders the per-cell results —
// so the CLI, the service and the cluster coordinator share one sweep engine
// and identical results.
//
// By default sweep spins the whole stack up in-process (httptest server over
// internal/service + internal/store); point -server at a running reprod
// instance — single-node or a cmd/reprod -workers coordinator — to run the
// same sweep remotely.
//
// Usage:
//
//	sweep -exp E1 [-trials k] [-server http://host:8080] > e1.csv
//
// Experiments: E1 (Alg 2 vs n and W), E2 (Alg 3 vs ∆), E3 (FastMWM vs ∆),
// E4 (OneEpsMCM vs ε), E6 (NMIS coverage vs δ), E9 (proposal vs ∆).
package main

import (
	"context"
	"flag"
	"log"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	names := strings.Join(sweep.Experiments(), ", ")
	exp := flag.String("exp", "E1", "experiment id ("+names+")")
	trials := flag.Int("trials", 3, "trials per configuration")
	server := flag.String("server", "", "reprod base URL (default: run the service in-process)")
	flag.Parse()

	p, err := sweep.Build(*exp, *trials)
	if err != nil {
		log.Fatal(err)
	}

	client, shutdown := newClient(*server)
	defer shutdown()
	if err := sweep.Execute(context.Background(), client, *exp, p); err != nil {
		log.Fatal(err)
	}
	if err := p.CSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// newClient returns a batch-API client: against -server when given,
// otherwise against a full in-process stack.
func newClient(server string) (*httpapi.Client, func()) {
	if server != "" {
		return httpapi.NewClient(server, nil), func() {}
	}
	svc := service.New(service.Config{})
	st := store.New(store.Config{MaxGraphs: 1024})
	batches := service.NewBatches(svc, st, service.BatchConfig{})
	ts := httptest.NewServer(httpapi.NewHandler(svc, st, batches))
	return httpapi.NewClient(ts.URL, ts.Client()), func() {
		ts.Close()
		svc.Close()
	}
}
