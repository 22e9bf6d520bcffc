// Package sweep builds and executes the CSV parameter sweeps of DESIGN.md
// §5 against the batch API. Each experiment is a Plan: a table layout plus
// an ordered list of runs, executed by uploading every run's graph to the
// server's named store (fingerprint-deduplicated), submitting one batch of
// explicit cells, streaming its results as they settle (resuming from the
// last received cell on dropped connections), and emitting one row per cell.
//
// The package is shared by cmd/sweep (which renders the CSV to stdout) and
// the internal/cluster tests (which assert that a multi-worker coordinator
// produces byte-identical CSVs to a single-node server), so the CLI and the
// cluster acceptance harness exercise one engine.
//
// Layer (DESIGN.md §2): sweep sits above internal/httpapi (it is a pure
// client of the wire format) and the repro facade (graph construction);
// below cmd/sweep.
//
// Concurrency and ownership: a Plan is single-use and not safe for
// concurrent use; Execute mutates it by filling the table. The httpapi
// client it drives may be shared.
package sweep

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/exact"
	"repro/internal/httpapi"
	"repro/internal/stats"
)

// run is one sweep cell: a graph, an algorithm invocation, and the row the
// result turns into.
type run struct {
	g      *repro.Graph
	algo   string
	params httpapi.ParamsRequest
	// emit appends this run's row given the member job's result.
	emit func(t *stats.Table, res *httpapi.JobResult)
}

// Plan is one experiment: a table layout plus its runs in row order.
type Plan struct {
	table *stats.Table
	runs  []run
}

// CSV renders the executed plan's table.
func (p *Plan) CSV(w io.Writer) error { return p.table.CSV(w) }

var experiments = map[string]func(trials int) (*Plan, error){
	"E1": sweepE1,
	"E2": sweepE2,
	"E3": sweepE3,
	"E4": sweepE4,
	"E6": sweepE6,
	"E9": sweepE9,
}

// Experiments returns the experiment IDs, sorted.
func Experiments() []string {
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Build constructs the named experiment's plan with the given trial count.
func Build(exp string, trials int) (*Plan, error) {
	build, ok := experiments[exp]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown experiment %q (have: %s)",
			exp, strings.Join(Experiments(), ", "))
	}
	return build(trials)
}

// Submission is an in-flight sweep: the uploaded graph names, the submitted
// batch ID, and the plan waiting for its rows. Everything it references
// server-side (the named graphs, the batch) is addressed by durable IDs, so
// Collect may run against a different client — including one pointed at a
// server that restarted from its WAL in between.
type Submission struct {
	// Exp is the experiment ID the submission was built from.
	Exp string
	// BatchID is the server-assigned batch handle Collect polls.
	BatchID string
	names   []string
	plan    *Plan
}

// Submit uploads every run's graph to the store (identical graphs
// deduplicate server-side) and submits one batch of explicit cells in row
// order. On error the uploads are cleaned up before returning.
func Submit(ctx context.Context, c *httpapi.Client, exp string, p *Plan) (*Submission, error) {
	s := &Submission{Exp: exp, plan: p}
	cells := make([]httpapi.BatchCell, len(p.runs))
	for i, r := range p.runs {
		var buf bytes.Buffer
		if err := repro.WriteGraph(&buf, r.g); err != nil {
			s.cleanup(ctx, c)
			return nil, err
		}
		name := fmt.Sprintf("sweep-%s-r%03d", exp, i)
		if _, err := c.PutGraph(ctx, name, buf.String()); err != nil {
			s.cleanup(ctx, c)
			return nil, fmt.Errorf("uploading graph for cell %d: %w", i, err)
		}
		s.names = append(s.names, name)
		params := r.params
		cells[i] = httpapi.BatchCell{Graph: name, Algo: r.algo, Params: &params}
	}
	b, err := c.SubmitBatch(ctx, httpapi.BatchRequest{Cells: cells})
	if err != nil {
		s.cleanup(ctx, c)
		return nil, fmt.Errorf("submitting batch: %w", err)
	}
	s.BatchID = b.ID
	return s, nil
}

// collectRetries bounds how many times Collect re-opens a dropped result
// stream before giving up. Each reconnect resumes from the cursor, so a
// retry never re-waits for cells already received.
const collectRetries = 5

// Collect consumes the submission's batch incrementally over the result
// stream (GET /v1/batches/{id}/stream) and emits the plan's rows as cells
// settle, then deletes the uploaded graphs. A dropped connection resumes
// from the last received cell index, so rows survive server restarts and
// proxy timeouts without re-polling from scratch. c need not be the client
// Submit used — only the same logical server (or its restarted incarnation,
// which recovers the batch and the graphs from its WAL).
//
// The rows Collect emits are byte-identical to those rendered from the
// terminal GET of the finished batch: the stream replays every settled cell
// in index order with the same rendering.
func (s *Submission) Collect(ctx context.Context, c *httpapi.Client) (err error) {
	defer func() {
		if cerr := s.cleanup(ctx, c); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cells := make([]httpapi.BatchCellView, len(s.plan.runs))
	seen := make([]bool, len(s.plan.runs))
	from := 0
	for attempt := 0; ; attempt++ {
		_, err = c.StreamBatch(ctx, s.BatchID, from, func(cv httpapi.BatchCellView) error {
			if cv.Index < 0 || cv.Index >= len(cells) {
				return fmt.Errorf("stream returned out-of-range cell index %d (batch has %d)", cv.Index, len(cells))
			}
			cells[cv.Index] = cv
			seen[cv.Index] = true
			if cv.Index+1 > from {
				from = cv.Index + 1
			}
			return nil
		})
		if err == nil {
			break
		}
		if ctx.Err() != nil || attempt >= collectRetries {
			return fmt.Errorf("streaming batch %s: %w", s.BatchID, err)
		}
		select { // transient drop: back off, then resume from the cursor
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
	for i, cell := range cells {
		if !seen[i] {
			return fmt.Errorf("stream ended without cell %d", i)
		}
		if cell.State != "done" {
			return fmt.Errorf("cell %d (%s on %s): %s: %s",
				cell.Index, cell.Algo, cell.Graph, cell.State, cell.Error)
		}
	}
	for i, cell := range cells {
		s.plan.runs[i].emit(s.plan.table, cell.Result)
	}
	return nil
}

// cleanup deletes the uploaded graphs. The uploads are per-sweep scratch:
// delete them however this sweep ends, or a failed run would leak
// deterministic sweep-* names into a remote server's store and 409 every
// later run that maps the same name to a different graph.
func (s *Submission) cleanup(ctx context.Context, c *httpapi.Client) error {
	var err error
	for _, name := range s.names {
		if derr := c.DeleteGraph(ctx, name); derr != nil && err == nil {
			err = fmt.Errorf("cleaning up %s: %w", name, derr)
		}
	}
	s.names = nil
	return err
}

// Execute drives a plan through the batch API end to end: Submit, then
// Collect on the same client. Canceling ctx abandons the in-flight round
// trip; cleanup still runs.
func Execute(ctx context.Context, c *httpapi.Client, exp string, p *Plan) error {
	s, err := Submit(ctx, c, exp, p)
	if err != nil {
		return err
	}
	return s.Collect(ctx, c)
}

func sweepE1(trials int) (*Plan, error) {
	p := &Plan{table: stats.NewTable("n", "W", "trial", "rounds", "weight")}
	for _, n := range []int{64, 128, 256, 512} {
		for _, w := range []int64{1, 16, 256, 4096} {
			for k := 0; k < trials; k++ {
				g := repro.GNP(n, 8/float64(n), uint64(n)+uint64(w))
				repro.AssignUniformNodeWeights(g, w, uint64(w)+uint64(k))
				n, w, k := n, w, k
				p.runs = append(p.runs, run{
					g: g, algo: "maxis", params: httpapi.ParamsRequest{Seed: uint64(k)},
					emit: func(t *stats.Table, res *httpapi.JobResult) {
						t.AddRow(n, w, k, res.Cost.Rounds, res.Weight)
					},
				})
			}
		}
	}
	return p, nil
}

func sweepE2(trials int) (*Plan, error) {
	p := &Plan{table: stats.NewTable("delta", "trial", "rounds", "coloring_rounds_included", "weight")}
	for _, d := range []int{2, 4, 8, 16, 32} {
		for k := 0; k < trials; k++ {
			g, err := repro.RandomRegular(128, d, uint64(d)+uint64(k))
			if err != nil {
				return nil, err
			}
			repro.AssignUniformNodeWeights(g, 512, uint64(d)+7)
			d, k := d, k
			p.runs = append(p.runs, run{
				g: g, algo: "maxis-det", params: httpapi.ParamsRequest{Seed: uint64(k)},
				emit: func(t *stats.Table, res *httpapi.JobResult) {
					t.AddRow(d, k, res.Cost.Rounds, true, res.Weight)
				},
			})
		}
	}
	return p, nil
}

func sweepE3(trials int) (*Plan, error) {
	p := &Plan{table: stats.NewTable("delta", "trial", "rounds", "weight", "greedy_lower_bound")}
	for _, d := range []int{4, 8, 16, 32} {
		for k := 0; k < trials; k++ {
			g, err := repro.RandomRegular(128, d, uint64(d)*3+uint64(k))
			if err != nil {
				return nil, err
			}
			repro.AssignUniformEdgeWeights(g, 512, uint64(d)+11)
			greedy := g.MatchingWeight(exact.GreedyMatching(g))
			d, k := d, k
			p.runs = append(p.runs, run{
				g: g, algo: "fastmwm", params: httpapi.ParamsRequest{Eps: 0.5, Seed: uint64(k)},
				emit: func(t *stats.Table, res *httpapi.JobResult) {
					t.AddRow(d, k, res.Cost.Rounds, res.Weight, greedy)
				},
			})
		}
	}
	return p, nil
}

func sweepE4(trials int) (*Plan, error) {
	p := &Plan{table: stats.NewTable("eps", "trial", "rounds", "matched", "opt")}
	g := repro.GNP(96, 0.06, 77)
	opt := len(exact.MaxCardinalityMatching(g))
	for _, eps := range []float64{1, 0.5, 0.34, 0.25} {
		for k := 0; k < trials; k++ {
			eps, k := eps, k
			p.runs = append(p.runs, run{
				g: g, algo: "oneeps", params: httpapi.ParamsRequest{Eps: eps, Seed: uint64(k)},
				emit: func(t *stats.Table, res *httpapi.JobResult) {
					t.AddRow(eps, k, res.Cost.Rounds, res.Size, opt)
				},
			})
		}
	}
	return p, nil
}

func sweepE6(trials int) (*Plan, error) {
	p := &Plan{table: stats.NewTable("delta_target", "trial", "rounds", "uncovered_fraction")}
	g := repro.GNP(256, 0.03, 9)
	n := g.N()
	for _, delta := range []float64{0.5, 0.2, 0.1, 0.05} {
		for k := 0; k < trials; k++ {
			delta, k := delta, k
			p.runs = append(p.runs, run{
				g: g, algo: "nmis", params: httpapi.ParamsRequest{K: 2, Delta: delta, Seed: uint64(k)},
				emit: func(t *stats.Table, res *httpapi.JobResult) {
					t.AddRow(delta, k, res.Cost.Rounds, float64(res.Uncovered)/float64(n))
				},
			})
		}
	}
	return p, nil
}

func sweepE9(trials int) (*Plan, error) {
	p := &Plan{table: stats.NewTable("delta", "trial", "rounds", "matched", "opt")}
	for _, d := range []int{4, 16, 64} {
		for k := 0; k < trials; k++ {
			g, err := repro.RandomRegular(256, d, uint64(d)+uint64(k)+17)
			if err != nil {
				return nil, err
			}
			opt := len(exact.MaxCardinalityMatching(g))
			d, k := d, k
			p.runs = append(p.runs, run{
				g: g, algo: "proposal", params: httpapi.ParamsRequest{Eps: 0.5, Seed: uint64(k)},
				emit: func(t *stats.Table, res *httpapi.JobResult) {
					t.AddRow(d, k, res.Cost.Rounds, res.Size, opt)
				},
			})
		}
	}
	return p, nil
}
