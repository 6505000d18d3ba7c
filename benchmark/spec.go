package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec mirrors BENCHMARK.json. The harness reads the file at start-up
// (it runs from the checkout root) so that the names it prints and the
// bounds -compare applies are the committed ones, not a second copy.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measured is the name → value map a run fills in; select picks the
// metrics of one list out of it.
type measured map[string]float64

// selectMetrics returns the listed metrics with their units. An
// end-to-end metric must have been measured (it is never 0 by
// construction); a per-layer metric a workload does not exercise reads 0,
// which is itself the statement "this layer did nothing here". A name in
// m that neither list knows is a harness bug and fails the run.
func (s *spec) selectMetrics(m measured, traced bool) (map[string]metricValue, error) {
	known := make(map[string]bool, len(s.EndToEnd)+len(s.PerLayer))
	for _, d := range s.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range s.PerLayer {
		known[d.Name] = true
	}
	for name, v := range m {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is measured but not named in BENCHMARK.json", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not a finite number", name)
		}
	}
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, d := range list {
		v, ok := m[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
