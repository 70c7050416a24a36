package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifestPath is BENCHMARK.json at the root of the checkout. It is the
// single source of metric names, units, directions and bounds: the
// workloads only put numbers under names, and emit() refuses a name the
// manifest does not declare, so the two cannot drift apart.
const manifestPath = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.RunSeconds < 1 || len(m.Workloads) == 0 || len(m.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: missing run_seconds, workloads or end_to_end", path)
	}
	return &m, nil
}

// value is one reported metric in the driver's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders measured values under the declared names of one metric
// list. Every end-to-end metric must have been measured; a per-layer
// metric that does not apply to the workload (shard RPC time on a
// campaign, say) reads 0. A measured name the list does not declare is a
// bug in the benchmark and is reported rather than dropped.
func emit(defs []metricDef, got map[string]float64, requireAll bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := got[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range got {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("measured but not declared in %s: %v", manifestPath, stray)
	}
	return out, nil
}
