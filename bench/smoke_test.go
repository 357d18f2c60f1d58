package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs all four workloads end to end at a small
// scale — real clusters, real sockets, every check — and holds the
// output to BENCHMARK.json: each metric it lists is emitted under that
// name and unit with a finite value, and no operation fails. It asserts
// nothing about how long anything took.
func TestSmokeEveryWorkload(t *testing.T) {
	scanResidents, durResidents, setupRepeats = 400, 40, 1
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	cfg := config{seed: 1, seconds: 400 * time.Millisecond, slice: 50 * time.Millisecond, outDir: t.TempDir()}
	for _, named := range spec.Workloads {
		w := findWorkload(named.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", named.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			timed := timedRun(w, cfg)
			if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d: %s", timed.Correct, timed.Attempted, timed.Failed, timed.Error)
			}
			for _, m := range spec.EndToEnd {
				got, ok := timed.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 || math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("end-to-end %s: got %+v (present=%v), want a positive finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(timed.EndToEnd) != len(spec.EndToEnd) {
				t.Errorf("timed run emitted %d metrics, BENCHMARK.json lists %d", len(timed.EndToEnd), len(spec.EndToEnd))
			}

			traced := tracedRun(w, cfg)
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d: %s", traced.Correct, traced.Failed, traced.Error)
			}
			for _, m := range spec.PerLayer {
				got, ok := traced.PerLayer[m.Name]
				if !ok || got.Unit != m.Unit || math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("per-layer %s: got %+v (present=%v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(traced.PerLayer) != len(spec.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json lists %d", len(traced.PerLayer), len(spec.PerLayer))
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
