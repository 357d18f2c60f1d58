package main

import (
	"os/exec"
	"testing"
)

// TestFiguresUnchanged runs scripts/figures.sh: `expt -run all` through
// Table 2, intrusiveness and granularity must be byte-identical to the
// committed experiments_output.txt. Every refactor of the simulator's
// assembly claims this; here it is a test. About ten seconds, so -short
// skips it.
func TestFiguresUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (~10 s)")
	}
	out, err := exec.Command("bash", "../../scripts/figures.sh").CombinedOutput()
	if err != nil {
		t.Fatalf("scripts/figures.sh: %v\n%s", err, out)
	}
}
