package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the code must describe the same benchmark: the same
// workloads in the same order with the same reasons, and the same metric
// names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if s := spec.Workloads[i]; s.Name != w.name || s.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, s.Name, s.Why, w.name, w.why)
		}
	}
	type nu struct{ name, unit string }
	check := func(kind string, code []metricDef, got []nu) {
		if len(got) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(code))
			return
		}
		for i, d := range code {
			if got[i] != (nu{d.name, d.unit}) {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", kind, i, got[i], d)
			}
		}
	}
	var e2e, layer []nu
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, nu{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, nu{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}
