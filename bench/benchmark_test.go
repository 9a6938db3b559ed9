package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and metrics
// this program reports; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics, true)
	check("per_layer", spec.PerLayer, layerMetrics, false)
}

// The result line carries exactly the declared metrics, and a missing one
// makes the run incorrect.
func TestSummarizeReportsEveryMetric(t *testing.T) {
	rep := &wlReport{Attempted: 10, E2E: map[string]float64{}, Layer: map[string]float64{}}
	for _, d := range e2eMetrics {
		rep.E2E[d.name] = 1
	}
	for _, d := range layerMetrics {
		rep.Layer[d.name] = 1
	}
	rec := runRecord{Workloads: map[string]*wlReport{workloads[0].name: rep}}
	one := workloads[:1]
	for traced, defs := range map[bool][]metricDef{false: e2eMetrics, true: layerMetrics} {
		res := summarize(rec, one, traced)
		if !res.Correct || len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: correct=%v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), len(defs))
		}
	}
	delete(rep.E2E, "read_p99_ns")
	if summarize(rec, one, false).Correct {
		t.Error("a run missing an end-to-end metric was reported correct")
	}
}
