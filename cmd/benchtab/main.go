// Command benchtab regenerates the paper's Table 1 as measured rows: for
// each of the four results it reports the proven approximation factor, the
// worst ratio actually observed, and the measured round complexity on a
// standard workload, so the table's claims can be eyeballed against reality.
// Rows are data — each names a registry algorithm run through repro.Run —
// rather than hand-wired calls.
//
// With -json the same measurements are additionally written as a
// machine-readable perf record (BENCH_<date>.json by default), including
// wall-clock time and allocation counts per row, so the repository's
// performance trajectory accumulates comparable data points over time. The
// record also carries a separate wal section — append and fsync latency of
// the durable coordinator's write-ahead log on this machine — which is
// informational only and never part of the -compare gate.
//
// With -compare <file> the fresh measurements are diffed against a previous
// record: per-row wall_ms and allocs_per_run deltas are printed, and the
// process exits non-zero if any row's allocs_per_run regressed by more than
// -threshold percent. The program's allocations are deterministic for a
// fixed (n, trials, seed); the count also takes in the few objects the Go
// runtime allocates when a garbage collection lands inside a measured run (a
// new OS thread, a grown per-P timer heap, the first cycle's mark workers),
// which move a row by a few counts per run. That makes allocation counts a
// CI-enforceable gate at a percentage threshold where wall-clock (reported,
// but noisy on shared runners) is not.
//
// With -scale the tool switches from the paper's table to a single-worker
// scaling sweep: -n takes a comma list with k/M suffixes (96,10k,1M), each
// -algos algorithm runs once per size over a sparse G(n, 8/n) instance (or
// over one -load graph file), and each (algo, n) cell reports wall-clock,
// allocations, peak RSS, rounds and messages. -comparescale gates a fresh
// sweep against a committed record (BENCH_scale_baseline.json): rounds and
// messages must match exactly, allocations within -threshold percent; cells
// are matched by (algo, n) so a CI subset run can gate against the full
// baseline.
//
// Usage:
//
//	benchtab [-n nodes] [-trials k] [-seed s] [-json] [-out file]
//	         [-compare BENCH_baseline.json] [-threshold pct]
//	benchtab -scale [-n 96,10k,1M] [-algos maxis,mwm2] [-load graph.el]
//	         [-out BENCH_scale_baseline.json]
//	         [-comparescale BENCH_scale_baseline.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/exact"
	"repro/internal/stats"
	"repro/internal/wal"
)

// rowSpec describes one measured table row: which registry algorithm to run
// and how to score its answer against a baseline.
type rowSpec struct {
	row, label, guarantee, model string
	algo                         string
	eps                          float64 // 0 = algorithm takes no ε
	seedOffset                   uint64
	ratio                        func(g *repro.Graph, res *repro.RunResult) float64
}

// benchRow is one row of the -json perf record.
type benchRow struct {
	Row        string  `json:"row"`
	Algo       string  `json:"algo"`
	Label      string  `json:"label"`
	Guarantee  string  `json:"guarantee"`
	Model      string  `json:"model"`
	N          int     `json:"n"`
	MeanM      float64 `json:"mean_m"`
	Trials     int     `json:"trials"`
	MeanRounds float64 `json:"mean_rounds"`
	// MeanMessages averages Cost.Messages per trial — the engine-telemetry
	// companion to MeanRounds, so BENCH records track message complexity too.
	MeanMessages float64 `json:"mean_messages"`
	WorstRatio   float64 `json:"worst_ratio"`
	WallMS       float64 `json:"wall_ms"`
	AllocsPer    uint64  `json:"allocs_per_run"`
}

// walBench is the WAL micro-benchmark section of the -json record. It lives
// beside Rows, not in it: -compare matches rows by algorithm and fails on
// unmatched entries, and the WAL numbers are informational (fsync latency is
// a property of the runner's disk, not of this repository's code), so they
// must never trip the allocation gate or force a baseline regeneration.
type walBench struct {
	Records      int `json:"records"`
	PayloadBytes int `json:"payload_bytes"`
	SyncEvery    int `json:"sync_every"`
	// AppendNsOp is the group-commit append path (Sync every SyncEvery
	// records) — the batch ledger's cadence.
	AppendNsOp float64 `json:"append_ns_op"`
	AppendMBps float64 `json:"append_mb_s"`
	// AppendSyncNsOp fsyncs per record — the store's put commit point.
	AppendSyncNsOp float64 `json:"appendsync_ns_op"`
}

// benchRecord is the top-level -json document.
type benchRecord struct {
	Date      string     `json:"date"`
	GoVersion string     `json:"go"`
	GOMAXPROC int        `json:"gomaxprocs"`
	N         int        `json:"n"`
	Trials    int        `json:"trials"`
	Seed      uint64     `json:"seed"`
	Rows      []benchRow `json:"rows"`
	WAL       *walBench  `json:"wal,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")
	nFlag := flag.String("n", "96", "nodes per instance; -scale mode takes a comma list with k/M suffixes (96,10k,1M)")
	trials := flag.Int("trials", 5, "instances per row (table mode)")
	seed := flag.Uint64("seed", 1, "base seed")
	jsonOut := flag.Bool("json", false, "also write a BENCH_<date>.json perf record")
	outPath := flag.String("out", "", "perf record path (default BENCH_<date>.json; implies -json)")
	compare := flag.String("compare", "", "previous perf record to diff against; exit 1 on allocs_per_run regression beyond -threshold")
	threshold := flag.Float64("threshold", 25, "allowed allocs_per_run regression for -compare/-comparescale, in percent")
	scale := flag.Bool("scale", false, "scaling-table mode: run each -algos algorithm once per -n size over sparse G(n, 8/n) instances; reports wall/allocs/peak-RSS/rounds/messages per cell")
	algosFlag := flag.String("algos", "maxis,mwm2", "comma-separated algorithms for -scale mode")
	loadPath := flag.String("load", "", "-scale mode: benchmark this graph file (.el/.txt/.mtx/.rgd1/.rgb1) instead of generating; overrides -n")
	compareScale := flag.String("comparescale", "", "-scale mode: gate against this scale record — rounds and messages must match exactly, allocs within -threshold; cells matched by (algo, n), unmatched cells skipped")
	flag.Parse()
	if *trials < 1 {
		log.Fatalf("trials must be ≥ 1, got %d", *trials)
	}

	sizes, err := parseSizes(*nFlag)
	if err != nil {
		log.Fatalf("-n: %v", err)
	}
	if *scale {
		cfg := scaleConfig{
			sizes:     sizes,
			seed:      *seed,
			loadPath:  *loadPath,
			jsonOut:   *jsonOut,
			outPath:   *outPath,
			compare:   *compareScale,
			threshold: *threshold,
		}
		for _, a := range strings.Split(*algosFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.algos = append(cfg.algos, a)
			}
		}
		if len(cfg.algos) == 0 {
			log.Fatal("-scale needs at least one algorithm in -algos")
		}
		if err := runScale(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *compareScale != "" || *loadPath != "" {
		log.Fatal("-comparescale and -load only apply in -scale mode")
	}
	if len(sizes) != 1 {
		log.Fatalf("table mode takes a single -n size (got %q); use -scale for a size sweep", *nFlag)
	}
	n := &sizes[0]

	rows := []rowSpec{
		{"1", "MaxIS local-ratio (Alg 2, Luby)", "∆", "CONGEST", "maxis", 0, 3, isRatio},
		{"1", "MWM via L(G) (Thm 2.10)", "2", "CONGEST", "mwm2", 0, 4, mwmRatio},
		{"2", "MaxIS coloring (Alg 3)", "∆", "CONGEST", "maxis-det", 0, 5, isRatio},
		{"3", "FastMWM (§B.1, ε=0.5)", "2+ε", "CONGEST", "fastmwm", 0.5, 6, mwmRatio},
		{"4", "OneEpsMCM (Thm B.4, ε=0.34)", "1+ε", "LOCAL", "oneeps", 0.34, 7, cardRatio},
	}

	ratios := make([][]float64, len(rows))
	rounds := make([][]float64, len(rows))
	messages := make([][]float64, len(rows))
	wall := make([]time.Duration, len(rows))
	allocs := make([]uint64, len(rows))
	var mSum float64
	for t := 0; t < *trials; t++ {
		s := *seed + uint64(t)*1000
		g := repro.GNP(*n, 8/float64(*n), s)
		repro.AssignUniformNodeWeights(g, 256, s+1)
		repro.AssignUniformEdgeWeights(g, 256, s+2)
		mSum += float64(g.M())

		for i, rs := range rows {
			opts := []repro.Option{repro.WithSeed(s + rs.seedOffset)}
			if rs.eps > 0 {
				opts = append(opts, repro.WithEps(rs.eps))
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := repro.Run(rs.algo, g, opts...)
			wall[i] += time.Since(start)
			runtime.ReadMemStats(&ms1)
			allocs[i] += ms1.Mallocs - ms0.Mallocs
			if err != nil {
				log.Fatalf("%s: %v", rs.algo, err)
			}
			if r := rs.ratio(g, res); r > 0 {
				ratios[i] = append(ratios[i], r)
			}
			rounds[i] = append(rounds[i], float64(res.Cost.Rounds))
			messages[i] = append(messages[i], float64(res.Cost.Messages))
		}
	}

	table := stats.NewTable("row", "algorithm", "guarantee", "worst ratio", "mean rounds", "mean msgs", "model")
	record := benchRecord{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOMAXPROC: runtime.GOMAXPROCS(0),
		N:         *n,
		Trials:    *trials,
		Seed:      *seed,
	}
	for i, rs := range rows {
		r := stats.Summarize(ratios[i])
		d := stats.Summarize(rounds[i])
		m := stats.Summarize(messages[i])
		table.AddRow(rs.row, rs.label, rs.guarantee,
			fmt.Sprintf("%.3f", r.Max), fmt.Sprintf("%.1f", d.Mean),
			fmt.Sprintf("%.0f", m.Mean), rs.model)
		record.Rows = append(record.Rows, benchRow{
			Row:          rs.row,
			Algo:         rs.algo,
			Label:        rs.label,
			Guarantee:    rs.guarantee,
			Model:        rs.model,
			N:            *n,
			MeanM:        mSum / float64(*trials),
			Trials:       *trials,
			MeanRounds:   d.Mean,
			MeanMessages: m.Mean,
			WorstRatio:   r.Max,
			WallMS:       float64(wall[i].Microseconds()) / 1000 / float64(*trials),
			AllocsPer:    allocs[i] / uint64(*trials),
		})
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if wb, err := measureWAL(); err != nil {
		// The WAL row is informational; a read-only or full temp filesystem
		// should not fail the table run.
		log.Printf("wal micro-benchmark skipped: %v", err)
	} else {
		record.WAL = wb
		fmt.Printf("\nwal: append %.0f ns/op (%.1f MB/s, sync every %d), appendsync %.0f ns/op (%d B payloads)\n",
			wb.AppendNsOp, wb.AppendMBps, wb.SyncEvery, wb.AppendSyncNsOp, wb.PayloadBytes)
	}
	if *jsonOut || *outPath != "" {
		path := *outPath
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", record.Date)
		}
		blob, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nperf record written to %s\n", path)
	}
	if *compare != "" {
		if err := compareRecords(*compare, &record, *threshold); err != nil {
			log.Fatal(err)
		}
	}
}

// measureWAL times the two WAL commit paths the durable coordinator uses —
// group-commit Append+Sync (the batch ledger's cadence) and per-record
// AppendSync (the graph store's put commit point) — against a throwaway log
// in the OS temp directory. The numbers characterize the runner's disk as
// much as the code, so they land in the record's separate wal section, never
// in Rows, and are never gated by -compare.
func measureWAL() (*walBench, error) {
	dir, err := os.MkdirTemp("", "benchtab-wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer l.Close()

	const (
		records   = 4096
		payload   = 256
		syncEvery = 64
		syncRecs  = 128
	)
	buf := make([]byte, payload)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < records; i++ {
		if err := l.Append(1, buf); err != nil {
			return nil, err
		}
		if (i+1)%syncEvery == 0 {
			if err := l.Sync(); err != nil {
				return nil, err
			}
		}
	}
	appendDur := time.Since(start)

	start = time.Now()
	for i := 0; i < syncRecs; i++ {
		if err := l.AppendSync(1, buf); err != nil {
			return nil, err
		}
	}
	syncDur := time.Since(start)

	return &walBench{
		Records:        records,
		PayloadBytes:   payload,
		SyncEvery:      syncEvery,
		AppendNsOp:     float64(appendDur.Nanoseconds()) / records,
		AppendMBps:     float64(records*payload) / appendDur.Seconds() / (1 << 20),
		AppendSyncNsOp: float64(syncDur.Nanoseconds()) / syncRecs,
	}, nil
}

// compareRecords diffs the fresh record against a previous one and returns an
// error if any row's allocs_per_run regressed beyond threshold percent.
func compareRecords(path string, cur *benchRecord, threshold float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prev benchRecord
	if err := json.Unmarshal(blob, &prev); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if prev.N != cur.N || prev.Trials != cur.Trials || prev.Seed != cur.Seed {
		// allocs_per_run scales with the workload, so gating across different
		// configurations would fail (or worse, pass) spuriously; refuse.
		return fmt.Errorf("records not comparable: baseline (n=%d trials=%d seed=%d) vs current (n=%d trials=%d seed=%d); rerun with matching flags",
			prev.N, prev.Trials, prev.Seed, cur.N, cur.Trials, cur.Seed)
	}
	prevByAlgo := make(map[string]benchRow, len(prev.Rows))
	for _, r := range prev.Rows {
		prevByAlgo[r.Algo] = r
	}
	fmt.Printf("\ncomparison against %s (%s):\n", path, prev.Date)
	fmt.Printf("%-12s %12s %12s %8s %14s %14s %9s\n",
		"algo", "wall_ms", "wall_ms'", "Δwall", "allocs", "allocs'", "Δallocs")
	var worstAlgo string
	var worstPct float64
	var unmatched []string
	for _, r := range cur.Rows {
		p, ok := prevByAlgo[r.Algo]
		if !ok {
			fmt.Printf("%-12s %51s\n", r.Algo, "(no baseline row)")
			unmatched = append(unmatched, r.Algo)
			continue
		}
		delete(prevByAlgo, r.Algo)
		wallPct := pctDelta(float64(r.WallMS), float64(p.WallMS))
		allocPct := pctDelta(float64(r.AllocsPer), float64(p.AllocsPer))
		fmt.Printf("%-12s %12.3f %12.3f %+7.1f%% %14d %14d %+8.1f%%\n",
			r.Algo, p.WallMS, r.WallMS, wallPct, p.AllocsPer, r.AllocsPer, allocPct)
		if allocPct > worstPct {
			worstPct, worstAlgo = allocPct, r.Algo
		}
	}
	for algo := range prevByAlgo {
		fmt.Printf("%-12s %51s\n", algo, "(baseline row missing from current run)")
		unmatched = append(unmatched, algo)
	}
	if len(unmatched) > 0 {
		// An unmatched row means the gate cannot gate it; fail loudly so a
		// renamed or dropped algorithm forces a baseline regeneration rather
		// than silently escaping the regression check.
		return fmt.Errorf("rows without a counterpart in both records: %v; regenerate the baseline (-out) alongside the row change", unmatched)
	}
	if worstPct > threshold {
		return fmt.Errorf("allocs_per_run regression: %s is %.1f%% above the baseline (threshold %.1f%%)", worstAlgo, worstPct, threshold)
	}
	fmt.Printf("allocs_per_run within %.1f%% of baseline (worst: %+.1f%%)\n", threshold, worstPct)
	return nil
}

// pctDelta returns the percent change from prev to cur. Growth from a zero
// baseline is +Inf — above any finite threshold — so a row that once reached
// zero allocations can never silently regress past the gate.
func pctDelta(cur, prev float64) float64 {
	if prev == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - prev) / prev * 100
}

func isRatio(g *repro.Graph, res *repro.RunResult) float64 {
	if res.Weight == 0 {
		return 0
	}
	lower := g.SetWeight(exact.GreedyWeightIS(g))
	if g.N() <= 60 {
		if _, opt, err := exact.MaxWeightIndependentSet(g); err == nil {
			lower = opt
		}
	}
	return float64(lower) / float64(res.Weight)
}

func mwmRatio(g *repro.Graph, res *repro.RunResult) float64 {
	if res.Weight == 0 {
		return 0
	}
	lower := g.MatchingWeight(exact.GreedyMatching(g))
	if g.N() <= 20 {
		if _, opt, err := exact.MaxWeightMatchingBrute(g); err == nil {
			lower = opt
		}
	}
	return float64(lower) / float64(res.Weight)
}

func cardRatio(g *repro.Graph, res *repro.RunResult) float64 {
	if res.Size == 0 {
		return 0
	}
	opt := float64(len(exact.MaxCardinalityMatching(g)))
	return opt / float64(res.Size)
}
