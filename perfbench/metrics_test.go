package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json and vocabulary.json
// to the workloads and metrics the program actually runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var bj struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bj)
	var vocab struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "vocabulary.json", &vocab)

	var workloads []string
	for _, w := range bj.Workloads {
		if newWorkload(w.Name, t.TempDir()) == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
		workloads = append(workloads, w.Name)
	}
	sameNames(t, "vocabulary workloads", workloads, keys(vocab.Workloads))

	var e2e, layers []string
	for i, m := range bj.EndToEnd {
		if i >= len(endToEndUnits) || endToEndUnits[i].name != m.Name || endToEndUnits[i].unit != m.Unit {
			t.Errorf("end_to_end[%d] = %+v does not match the program's %+v", i, m, endToEndUnits)
		}
		e2e = append(e2e, m.Name)
	}
	for i, m := range bj.PerLayer {
		if i >= len(layerUnits) || layerUnits[i].name != m.Name || layerUnits[i].unit != m.Unit {
			t.Errorf("per_layer[%d] = %+v does not match the program's list", i, m)
		}
		layers = append(layers, m.Name)
	}
	if len(bj.EndToEnd) != len(endToEndUnits) || len(bj.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the program prints %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEndUnits), len(layerUnits))
	}
	sameNames(t, "vocabulary end_to_end", e2e, keys(vocab.EndToEnd))
	sameNames(t, "vocabulary per_layer", layers, keys(vocab.PerLayer))
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(t *testing.T, what string, want, got []string) {
	t.Helper()
	a, b := append([]string(nil), want...), append([]string(nil), got...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Errorf("%s: %v, want %v", what, b, a)
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: %v, want %v", what, b, a)
			return
		}
	}
}
