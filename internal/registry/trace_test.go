package registry

// Every live run carries its telemetry summary: a trace with at least one
// round whose message and bit totals equal the run's cost, for every
// registered algorithm.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestTelemetryOnOffBitIdenticalForAllAlgorithms keeps its name from when
// telemetry attachment could be switched off and the two runs were compared
// bit for bit; the switch is gone, and what remains is the attachment
// contract.
func TestTelemetryOnOffBitIdenticalForAllAlgorithms(t *testing.T) {
	g := graph.GNP(40, 0.15, rng.New(21))
	graph.AssignUniformNodeWeights(g, 64, rng.New(22))
	graph.AssignUniformEdgeWeights(g, 64, rng.New(23))

	for _, spec := range All() {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := spec.Run(g, Params{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatal("live run carries no trace")
			}
			if res.Trace.Rounds <= 0 {
				t.Fatalf("trace rounds = %d, want > 0", res.Trace.Rounds)
			}
			if int(res.Trace.Messages) != res.Cost.Messages {
				t.Fatalf("trace messages %d != cost messages %d", res.Trace.Messages, res.Cost.Messages)
			}
			if int(res.Trace.Bits) != res.Cost.Bits {
				t.Fatalf("trace bits %d != cost bits %d", res.Trace.Bits, res.Cost.Bits)
			}
		})
	}
}
