package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestMetricTablesMatchBenchmarkFile keeps the metric and workload tables
// of this program and the repository's BENCHMARK.json in step: a metric
// printed under a name the file does not declare, or declared but never
// printed, breaks the result contract.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Errorf("workloads = %v, BENCHMARK.json has %v", got, names)
	}
	for _, tc := range []struct {
		kind string
		defs []metricDef
		file []entry
	}{{"end_to_end", endToEnd, doc.EndToEnd}, {"per_layer", perLayer, doc.PerLayer}} {
		if len(tc.defs) != len(tc.file) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", tc.kind, len(tc.defs), len(tc.file))
			continue
		}
		for i, d := range tc.defs {
			if f := tc.file[i]; f != (entry{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d] = %+v here, %+v in BENCHMARK.json", tc.kind, i, d, f)
			}
		}
	}
}
