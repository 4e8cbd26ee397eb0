package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dsa/internal/experiments"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the metrics this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nreported:\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nreported:\n%v", spec.PerLayer, perLayer())
	}
}

func TestSweepNamesMatchBattery(t *testing.T) {
	if got := len(experiments.Names()); got != 20 {
		t.Fatalf("battery has %d sweeps; the per-layer sweep metrics assume 20", got)
	}
}
