package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner in
// step: the workloads it names exist, and the metrics it lists are the
// ones the runner prints, with the same units, in the same order.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is not in the runner", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the runner %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}
