package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric declaration in BENCHMARK.json. Bound is the
// share of the baseline median by which the metric may worsen; only
// end-to-end metrics carry one.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json: the single declaration of workload and
// metric names, units, directions and bounds. The program reads it at
// start so a metric's unit and bound are written down exactly once.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the last line of
// standard output in single-workload mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects raw metric values by name while a workload runs.
type values map[string]float64

// report renders the collected values as the run's result: every
// declared metric of the requested kind, in declaration order. A
// per-layer metric the workload did not produce reads 0 (the layer did
// no work, or the probe does not apply); a missing end-to-end metric is
// a bug in the benchmark and marks the run incorrect. A value set under
// a name BENCHMARK.json does not declare is likewise a bug.
func (s *benchSpec) report(v values, traced bool, attempted, failed int, problems []string) (result, []string) {
	defs := s.EndToEnd
	if traced {
		defs = s.PerLayer
	}
	declared := make(map[string]bool, len(s.EndToEnd)+len(s.PerLayer))
	for _, d := range s.EndToEnd {
		declared[d.Name] = true
	}
	for _, d := range s.PerLayer {
		declared[d.Name] = true
	}
	r := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok && !traced {
			problems = append(problems, "end-to-end metric not measured: "+d.Name)
		}
		r.Metrics[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	for name := range v {
		if !declared[name] {
			problems = append(problems, "metric not declared in BENCHMARK.json: "+name)
		}
	}
	r.Correct = failed == 0 && len(problems) == 0
	return r, problems
}
