package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchmarkFile is BENCHMARK.json at the root of the checkout: the names,
// units, directions and regression bounds every performance claim in this
// repository is made in.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadBenchmarkFile reads and validates the file against the driver's
// contract, so a malformed declaration fails here and not in the driver.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		return nil, fmt.Errorf("%s: %d workloads, want 2 to 8", path, n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		return nil, fmt.Errorf("%s: %d end-to-end metrics, want 1 to 16", path, n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		return nil, fmt.Errorf("%s: %d per-layer metrics, want 1 to 128", path, n)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		return nil, fmt.Errorf("%s: run_seconds %d, want 1 to 60", path, f.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s: name %q breaks the [A-Za-z0-9_.-] charset or the 64-character limit", path, n)
		}
		if seen[n] {
			return fmt.Errorf("%s: name %q is used twice", path, n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range f.Workloads {
		if err := checkName(w.Name); err != nil {
			return nil, err
		}
		if findSpec(w.Name) == nil {
			return nil, fmt.Errorf("%s: workload %q is not implemented", path, w.Name)
		}
	}
	hasSetup := false
	for i, list := range [][]metricDecl{f.EndToEnd, f.PerLayer} {
		for _, m := range list {
			if err := checkName(m.Name); err != nil {
				return nil, err
			}
			if !unitRE.MatchString(m.Unit) {
				return nil, fmt.Errorf("%s: metric %q has unit %q", path, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("%s: metric %q has better=%q", path, m.Name, m.Better)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				return nil, fmt.Errorf("%s: metric %q has bound %v, want (0, 0.25]", path, m.Name, m.Bound)
			}
			if i == 0 && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		return nil, fmt.Errorf("%s: no setup_s metric in seconds, lower is better", path)
	}
	return &f, nil
}

// checkMetrics verifies that a run emitted exactly the declared metrics with
// the declared units.
func checkMetrics(decls []metricDecl, got map[string]metric) error {
	for _, d := range decls {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not emitted", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(decls) {
		declared := map[string]bool{}
		for _, d := range decls {
			declared[d.Name] = true
		}
		for name := range got {
			if !declared[name] {
				return fmt.Errorf("metric %s was emitted but is not declared in BENCHMARK.json", name)
			}
		}
	}
	return nil
}
