package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the command
// in step: the per-layer metrics it lists are exactly those a traced run
// prints, with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range doc.PerLayer {
		listed[m.Name] = m.Unit
	}
	printed := layerMetricNames()
	for _, nu := range printed {
		if unit, ok := listed[nu[0]]; !ok || unit != nu[1] {
			t.Errorf("per-layer metric %s (%s) is printed but listed as %q", nu[0], nu[1], unit)
		}
	}
	if len(listed) != len(printed) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(listed), len(printed))
	}
}
