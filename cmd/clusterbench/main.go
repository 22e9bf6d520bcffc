// Command clusterbench measures the cluster fast path: it spins up an
// in-process fleet of real single-node reprod workers (each behind its own
// httptest server, exactly as internal/cluster's harness does) and runs the
// same 256-cell seed-sweep batch through a coordinator in two modes —
// grouped dispatch at the default group size, and GroupSize=1, where every
// cell is a group of its own — then reports end-to-end cells/sec for both,
// plus their ratio. Both modes run the same dispatch code; only the group
// size differs. Every run gets a fresh fleet so result caches cannot skew
// the comparison.
//
// The runs are steadied three ways. The workers sit at fixed base URLs
// (http://worker-<i>.clusterbench, mapped to their loopback listeners by the
// coordinator's dialer): the ring hashes the URL, so graph placement is the
// same in every run — with httptest's random ports it varied, and a batch
// whose two graphs landed on one worker ran at half the GroupSize=1
// throughput of one spread over two. The modes alternate run by run, so
// drift in the host's speed hits both alike. And each mode reports the
// median of its runs.
//
// With -json the measurements are written as a machine-readable perf record
// (BENCH_cluster_<date>.json by default). With -compare <file> the fresh
// speedup is diffed against a previous record and the process exits non-zero
// when it regressed by more than -threshold percent. The speedup ratio — not
// raw cells/sec — is the gated quantity: it is a property of the dispatch
// path, largely independent of the runner's absolute speed, which is what
// makes it CI-enforceable where wall-clock is not.
//
// Usage:
//
//	clusterbench [-workers n] [-seeds k] [-reps r] [-json] [-out file]
//	             [-compare BENCH_cluster_baseline.json] [-threshold pct]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// record is the -json perf document.
type record struct {
	Date      string  `json:"date"`
	GoVersion string  `json:"go"`
	GOMAXPROC int     `json:"gomaxprocs"`
	Workers   int     `json:"workers"`
	Cells     int     `json:"cells"`
	GroupedCS float64 `json:"grouped_cells_per_sec"`
	SingleCS  float64 `json:"groupsize1_cells_per_sec"`
	Speedup   float64 `json:"speedup"`
}

// fleet is one disposable in-process cluster: n workers plus a coordinator.
type fleet struct {
	coord   *cluster.Coordinator
	dialer  *http.Transport
	cleanup []func()
}

func (f *fleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	f.dialer.CloseIdleConnections()
	for _, fn := range f.cleanup {
		fn()
	}
}

// newFleet starts n workers at fixed URLs and a coordinator dispatching
// groups of up to groupSize cells (0 = the coordinator default).
func newFleet(n, groupSize int) (*fleet, error) {
	hosts := make(map[string]string, n) // "worker-<i>.clusterbench:80" → listener
	urls := make([]string, n)
	f := &fleet{}
	for i := range urls {
		svc := service.New(service.Config{Workers: 2, QueueSize: 1024})
		st := store.New(store.Config{})
		batches := service.NewBatches(svc, st, service.BatchConfig{})
		ts := httptest.NewServer(httpapi.NewHandler(svc, st, batches))
		host := fmt.Sprintf("worker-%d.clusterbench", i)
		hosts[host+":80"] = ts.Listener.Addr().String()
		urls[i] = "http://" + host
		f.cleanup = append(f.cleanup, ts.Close, svc.Close)
	}
	var d net.Dialer
	f.dialer = &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		return d.DialContext(ctx, network, hosts[addr])
	}}
	coord, err := cluster.New(cluster.Config{
		Workers:    urls,
		Window:     4,
		GroupSize:  groupSize,
		HTTPClient: &http.Client{Transport: f.dialer, Timeout: 30 * time.Second},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// runBatch executes the benchmark workload — 2 graphs × 2 algorithms × seeds
// seed-sweep cells — on a fresh fleet and returns cells/sec.
func runBatch(workers, seeds, groupSize int) (float64, int, error) {
	f, err := newFleet(workers, groupSize)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()

	for i, name := range []string{"cb-a", "cb-b"} {
		src := store.Source{Gen: "gnp", GenParams: registry.GenParams{
			N: 16 + 8*i, P: 0.2, Seed: uint64(40 + i), MaxW: 64,
		}}
		if _, _, err := f.coord.Store().Put(name, src); err != nil {
			return 0, 0, err
		}
	}
	seedList := make([]uint64, seeds)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}
	spec := service.BatchSpec{
		Graphs: []string{"cb-a", "cb-b"},
		Algos:  []string{"maxis", "mwm2"},
		Seeds:  seedList,
	}

	start := time.Now()
	v, err := f.coord.Batches().Submit(spec)
	if err != nil {
		return 0, 0, err
	}
	for {
		cur, ok := f.coord.Batches().Wait(context.Background(), v.ID, 10*time.Second)
		if !ok {
			return 0, 0, fmt.Errorf("batch %s vanished", v.ID)
		}
		if cur.State.Terminal() {
			if cur.Done != cur.Total {
				return 0, 0, fmt.Errorf("batch %s: %d/%d done, %d failed (%s)",
					v.ID, cur.Done, cur.Total, cur.Failed, firstError(cur))
			}
			elapsed := time.Since(start)
			return float64(cur.Total) / elapsed.Seconds(), cur.Total, nil
		}
	}
}

func firstError(v service.BatchView) string {
	for _, c := range v.Cells {
		if c.Error != "" {
			return c.Error
		}
	}
	return "no cell error"
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clusterbench: ")
	workers := flag.Int("workers", 3, "in-process workers in the fleet")
	seeds := flag.Int("seeds", 64, "seeds per (graph, algo) axis — cells = 4×seeds")
	reps := flag.Int("reps", 7, "runs per mode, alternating between the modes; the medians are reported")
	jsonOut := flag.Bool("json", false, "also write a BENCH_cluster_<date>.json perf record")
	outPath := flag.String("out", "", "perf record path (default BENCH_cluster_<date>.json; implies -json)")
	compare := flag.String("compare", "", "previous perf record to diff against; exit 1 on speedup regression beyond -threshold")
	threshold := flag.Float64("threshold", 20, "allowed speedup regression for -compare, in percent")
	flag.Parse()

	// groupSizes are the two modes: the coordinator default, then one cell
	// per group.
	groupSizes := [2]int{0, 1}
	var runs [2][]float64
	var cells int
	for r := 0; r < *reps; r++ {
		for k := range groupSizes {
			m := (r + k) % 2 // alternate which mode goes first
			cs, n, err := runBatch(*workers, *seeds, groupSizes[m])
			if err != nil {
				log.Fatalf("run %d, group size %d: %v", r, groupSizes[m], err)
			}
			runs[m] = append(runs[m], cs)
			cells = n
		}
	}
	grouped, single := median(runs[0]), median(runs[1])
	speedup := grouped / single

	fmt.Printf("cells          %d (over %d workers, median of %d runs per mode)\n", cells, *workers, *reps)
	fmt.Printf("grouped        %.1f cells/sec\n", grouped)
	fmt.Printf("groupsize 1    %.1f cells/sec\n", single)
	fmt.Printf("speedup        %.2fx\n", speedup)

	rec := record{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOMAXPROC: runtime.GOMAXPROCS(0),
		Workers:   *workers,
		Cells:     cells,
		GroupedCS: grouped,
		SingleCS:  single,
		Speedup:   speedup,
	}
	if *jsonOut || *outPath != "" {
		path := *outPath
		if path == "" {
			path = "BENCH_cluster_" + rec.Date + ".json"
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	if *compare != "" {
		buf, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatal(err)
		}
		var base record
		if err := json.Unmarshal(buf, &base); err != nil {
			log.Fatalf("parsing %s: %v", *compare, err)
		}
		delta := 100 * (speedup - base.Speedup) / base.Speedup
		fmt.Printf("baseline       %.2fx (%s), delta %+.1f%%\n", base.Speedup, base.Date, delta)
		if delta < -*threshold {
			log.Fatalf("speedup regressed %.1f%% (threshold %.0f%%): %.2fx -> %.2fx",
				-delta, *threshold, base.Speedup, speedup)
		}
	}
}
