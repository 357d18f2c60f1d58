package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunRejectsAutoshardWithReplicas: the TCP master's elastic path is
// unreplicated by design; combining -autoshard with -replicas must be
// rejected by flag validation — before any socket is bound — with an
// error that names the remedy.
func TestRunRejectsAutoshardWithReplicas(t *testing.T) {
	ecfg := elasticFlags{on: true, splitThreshold: 500, mergeThreshold: 10, interval: 5 * time.Second}
	err := run("127.0.0.1:0", "127.0.0.1:0", "montecarlo", time.Minute,
		"", "always", 0, 1, false, "", 1, "sync", 2*time.Second, ecfg, false, overloadFlags{})
	if err == nil {
		t.Fatal("run accepted -autoshard with -replicas 1")
	}
	if !strings.Contains(err.Error(), "-autoshard requires -replicas 0") {
		t.Fatalf("error %q does not name the conflict (-autoshard requires -replicas 0)", err)
	}
}

// TestRunFlagValidationMatrix pins the rest of the documented flag
// conflicts so a refactor of run()'s preamble cannot silently drop one.
func TestRunFlagValidationMatrix(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
		ecfg     elasticFlags
		want     string
	}{
		{"replicas out of range", 2, elasticFlags{}, "-replicas must be 0 or 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("127.0.0.1:0", "127.0.0.1:0", "montecarlo", time.Minute,
				"", "always", 0, 1, false, "", tc.replicas, "sync", 2*time.Second, tc.ecfg, false, overloadFlags{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
