package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the
// repository root in step with the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	for _, tc := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program reports %d", len(tc.json), len(tc.defs))
		}
		for i, d := range tc.defs {
			if tc.json[i].Name != d.name || tc.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, tc.json[i].Name, tc.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
