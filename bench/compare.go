package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the bound by which it may worsen.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var firstErr error
	for _, c := range candidates {
		b, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func loadResults(path string) (map[string]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*report, len(f.Runs))
	for _, r := range f.Runs {
		out[r.Workload] = r
	}
	return out, nil
}

// verdict judges one metric of run b against the same metric of run a.
// worse is how far b is on the wrong side of a, as a share of a. A
// difference the slices' own quartile spread could produce is not a
// finding either way: such a row is "unresolved", never "ok".
func verdict(a, b summary, better string, bound float64) (worse float64, v string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	worse = (b.Value - a.Value) / math.Abs(a.Value)
	if better == "higher" {
		worse = -worse
	}
	noise := math.Max(a.spread(), b.spread())
	switch {
	case worse > bound && worse > noise:
		return worse, "REGRESSION"
	case noise > bound:
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareFiles prints one row per workload and end-to-end metric found
// in both result files and returns the process exit code: 1 if any row
// is a regression beyond its bound, 2 if the inputs could not be read.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-18s %-20s %14s %26s %14s %26s %8s %6s  %s\n",
		"workload", "metric", "A", "[q1, q3]", "B", "[q1, q3]", "worse", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			worse, v := verdict(sa, sb, m.Better, m.Bound)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-20s %14.3f %26s %14.3f %26s %+7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, sa.Value, fmt.Sprintf("[%.3f, %.3f]", sa.Q1, sa.Q3),
				sb.Value, fmt.Sprintf("[%.3f, %.3f]", sb.Q1, sb.Q3), 100*worse, 100*m.Bound, v)
		}
	}
	return code
}
