package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReshardRegressionManifests replays the minimized manifests of seeds
// 73, 115, 117 and 142. Before the router let a keyed take parked on a
// shard follow a live split of it, each seed lost or over-aggregated
// results: the master timed out collecting. The shrinker cut each to one
// or two split events and one fault rule, so every manifest also runs its
// plan through the deployment's fault attach point. Each must parse and
// run clean.
func TestReshardRegressionManifests(t *testing.T) {
	paths, err := filepath.Glob("testdata/reshard-*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("%d reshard manifests in testdata, want 4", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ParseManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Faults.Rules) == 0 {
				t.Fatal("manifest carries no fault rule")
			}
			if rep := Run(m); rep.Failed() {
				t.Fatalf("violations: %q", rep.Violations)
			}
		})
	}
}
