package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the harness must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON pins what the harness prints to what
// BENCHMARK.json declares: the same workloads, and in each mode exactly the
// declared metric names with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}

	start := time.Unix(0, 0)
	ph := newPhase(&env{}, &tracer{})
	ph.start, ph.end = start, start.Add(time.Second)
	ph.cells = 1000
	e2e, err := endToEnd([]float64{1}, ph, delta{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := perLayer(&env{}, ph, delta{}, ph, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(mode string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: harness prints %d metrics, BENCHMARK.json declares %d", mode, len(got), len(want))
		}
		units := make(map[string]string, len(got))
		for _, m := range got {
			units[m.name] = m.unit
		}
		for _, w := range want {
			if u, ok := units[w.Name]; !ok || u != w.Unit {
				t.Errorf("%s: declared %s [%s], harness prints [%s] (present %t)", mode, w.Name, w.Unit, u, ok)
			}
		}
	}
	check("end_to_end", e2e, d.EndToEnd)
	check("per_layer", layers, d.PerLayer)
}
