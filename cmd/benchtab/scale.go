package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// This file is benchtab's -scale mode: instead of the paper's Table 1 at one
// size, it sweeps a list of graph sizes (-n 96,10k,1M) and runs each -algos
// algorithm once per size over a sparse G(n, 8/n) instance, reporting
// wall-clock, allocation count, peak RSS, round count and message count per
// (algo, n) cell. The record it writes (-out) is the single-worker scaling
// baseline BENCH_scale_baseline.json; -comparescale gates fresh runs against
// it: rounds and messages must match exactly (the determinism contract — a
// changed round or message count means the engine's schedule drifted) and
// allocs_per_run must stay within -threshold percent. Cells are matched by (algo, n), and cells
// present in only one record are reported but not gated, so CI can run a
// small-size subset against the full committed baseline.

// scaleRow is one (algo, n) cell of the scale record.
type scaleRow struct {
	Algo     string  `json:"algo"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	Rounds   int     `json:"rounds"`
	Messages int     `json:"messages"`
	WallMS   float64 `json:"wall_ms"`
	Allocs   uint64  `json:"allocs_per_run"`
	// PeakRSSMB is the process high-water mark after the cell ran: a ceiling
	// over everything executed so far, monotone across rows (-1 when the
	// platform cannot report it). The first cell at each new size is the
	// honest per-size reading.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// scaleRecord is the top-level -scale JSON document.
type scaleRecord struct {
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	GOMAXPROC int    `json:"gomaxprocs"`
	Seed      uint64 `json:"seed"`
	// Source names the workload: "gnp-sparse deg≈8" for generated sweeps or
	// the -load path.
	Source string     `json:"source"`
	Rows   []scaleRow `json:"rows"`
}

// scaleConfig carries the -scale flags into runScale.
type scaleConfig struct {
	sizes     []int
	algos     []string
	seed      uint64
	loadPath  string
	jsonOut   bool
	outPath   string
	compare   string
	threshold float64
}

// parseSizes parses a comma-separated size list with k (×10³) and M (×10⁶)
// suffixes: "96,10k,1M" → [96, 10000, 1000000].
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		mult := 1
		switch {
		case strings.HasSuffix(tok, "k"), strings.HasSuffix(tok, "K"):
			mult, tok = 1_000, tok[:len(tok)-1]
		case strings.HasSuffix(tok, "M"):
			mult, tok = 1_000_000, tok[:len(tok)-1]
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q: want a positive integer with optional k/M suffix", tok)
		}
		out = append(out, v*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -n size list")
	}
	return out, nil
}

// scaleGraph builds the standard scaling workload at size n: sparse
// G(n, 8/n) via the Batagelj–Brandes skip generator (O(n+m), so generating
// the instance never dominates measuring it) with uniform node and edge
// weights in [1, 256]. Seeds derive only from (seed, n), so every run of the
// same sweep measures identical instances.
func scaleGraph(n int, seed uint64) *graph.Graph {
	base := seed + uint64(n)*1_000_003
	g := graph.GNPSparse(n, 8/float64(n), rng.New(base))
	graph.AssignUniformNodeWeights(g, 256, rng.New(base+1))
	graph.AssignUniformEdgeWeights(g, 256, rng.New(base+2))
	return g
}

// benchScaleCell runs one algorithm once over g and measures the cell.
func benchScaleCell(g *graph.Graph, algo string, seed uint64) (scaleRow, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := repro.Run(algo, g, repro.WithSeed(seed))
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return scaleRow{}, fmt.Errorf("%s at n=%d: %w", algo, g.N(), err)
	}
	row := scaleRow{
		Algo:      algo,
		N:         g.N(),
		M:         g.M(),
		Rounds:    res.Cost.Rounds,
		Messages:  res.Cost.Messages,
		WallMS:    float64(wall.Microseconds()) / 1000,
		Allocs:    ms1.Mallocs - ms0.Mallocs,
		PeakRSSMB: -1,
	}
	if rss := stats.PeakRSS(); rss >= 0 {
		row.PeakRSSMB = float64(rss) / (1 << 20)
	}
	return row, nil
}

// runScale drives the -scale sweep: build each instance, run each algorithm
// once, render the table, and optionally write/gate the JSON record.
func runScale(cfg scaleConfig) error {
	record := scaleRecord{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOMAXPROC: runtime.GOMAXPROCS(0),
		Seed:      cfg.seed,
		Source:    "gnp-sparse deg≈8",
	}

	var instances []*graph.Graph
	if cfg.loadPath != "" {
		g, err := graph.ReadFile(cfg.loadPath, graph.ReadOptions{})
		if err != nil {
			return err
		}
		record.Source = cfg.loadPath
		instances = []*graph.Graph{g}
	}

	table := stats.NewTable("algo", "n", "m", "rounds", "msgs", "wall ms", "allocs", "peak rss MB")
	measure := func(g *graph.Graph, algo string) error {
		row, err := benchScaleCell(g, algo, cfg.seed)
		if err != nil {
			return err
		}
		record.Rows = append(record.Rows, row)
		rss := "n/a"
		if row.PeakRSSMB >= 0 {
			rss = fmt.Sprintf("%.1f", row.PeakRSSMB)
		}
		table.AddRow(row.Algo, fmt.Sprintf("%d", row.N), fmt.Sprintf("%d", row.M),
			fmt.Sprintf("%d", row.Rounds), fmt.Sprintf("%d", row.Messages),
			fmt.Sprintf("%.1f", row.WallMS), fmt.Sprintf("%d", row.Allocs), rss)
		return nil
	}
	if instances != nil {
		for _, algo := range cfg.algos {
			if err := measure(instances[0], algo); err != nil {
				return err
			}
		}
	} else {
		for _, n := range cfg.sizes {
			g := scaleGraph(n, cfg.seed)
			for _, algo := range cfg.algos {
				if err := measure(g, algo); err != nil {
					return err
				}
			}
			// Drop the instance before building the next size so peak RSS
			// reflects one resident graph at a time.
			g = nil
			_ = g
			runtime.GC()
		}
	}

	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	if cfg.jsonOut || cfg.outPath != "" {
		path := cfg.outPath
		if path == "" {
			path = fmt.Sprintf("BENCH_scale_%s.json", record.Date)
		}
		blob, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nscale record written to %s\n", path)
	}
	if cfg.compare != "" {
		return compareScaleRecords(cfg.compare, &record, cfg.threshold)
	}
	return nil
}

// compareScaleRecords gates a fresh scale record against a committed
// baseline. Cells are matched by (algo, n); unmatched cells on either side
// are reported but not gated, so a CI subset run (-n 96,10k) can gate
// against the full committed baseline. Round counts must match exactly —
// the engine is deterministic for a fixed (algo, n, seed), so any drift
// means the schedule changed and the baseline must be regenerated
// deliberately. allocs_per_run may move within threshold percent.
func compareScaleRecords(path string, cur *scaleRecord, threshold float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prev scaleRecord
	if err := json.Unmarshal(blob, &prev); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if prev.Seed != cur.Seed {
		return fmt.Errorf("records not comparable: baseline seed %d vs current %d", prev.Seed, cur.Seed)
	}
	type cellKey struct {
		algo string
		n    int
	}
	prevBy := make(map[cellKey]scaleRow, len(prev.Rows))
	for _, r := range prev.Rows {
		prevBy[cellKey{r.Algo, r.N}] = r
	}
	fmt.Printf("\nscale comparison against %s (%s):\n", path, prev.Date)
	fmt.Printf("%-10s %10s %10s %10s %8s %14s %14s %9s\n",
		"algo", "n", "rounds", "rounds'", "Δwall", "allocs", "allocs'", "Δallocs")
	var worst cellKey
	var worstPct float64
	matched := 0
	for _, r := range cur.Rows {
		k := cellKey{r.Algo, r.N}
		p, ok := prevBy[k]
		if !ok {
			fmt.Printf("%-10s %10d %46s\n", r.Algo, r.N, "(not in baseline, skipped)")
			continue
		}
		matched++
		if p.Rounds != r.Rounds || p.Messages != r.Messages {
			return fmt.Errorf("determinism drift: %s at n=%d ran %d rounds and %d messages, baseline %d and %d — regenerate the baseline only if the schedule change is intentional",
				r.Algo, r.N, r.Rounds, r.Messages, p.Rounds, p.Messages)
		}
		allocPct := pctDelta(float64(r.Allocs), float64(p.Allocs))
		fmt.Printf("%-10s %10d %10d %10d %+7.1f%% %14d %14d %+8.1f%%\n",
			r.Algo, r.N, p.Rounds, r.Rounds, pctDelta(r.WallMS, p.WallMS), p.Allocs, r.Allocs, allocPct)
		if allocPct > worstPct {
			worstPct, worst = allocPct, k
		}
	}
	if matched == 0 {
		return fmt.Errorf("no (algo, n) cells in common with %s — nothing gated", path)
	}
	if worstPct > threshold {
		return fmt.Errorf("allocs_per_run regression: %s at n=%d is %.1f%% above the baseline (threshold %.1f%%)",
			worst.algo, worst.n, worstPct, threshold)
	}
	fmt.Printf("%d cells gated: rounds and messages exact, allocs within %.1f%% (worst %+.1f%%)\n", matched, threshold, worstPct)
	return nil
}
