package main

import (
	"strings"
	"testing"
)

// TestRunFlagValidationMatrix pins that run() rejects a bad flag with the
// node's validation error before any socket is bound or dialed: the lookup
// address names a port nothing listens on, so a run that got as far as
// discovery would fail with a dial error instead. The full table of rejected
// specs is workerhost's TestSpecValidate; this is the wiring from flags to
// it.
func TestRunFlagValidationMatrix(t *testing.T) {
	base := []string{"-lookup", "127.0.0.1:1", "-obs", "127.0.0.1:0"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown job", []string{"-job", "sudoku"}, `unknown job "sudoku"`},
		{"negative optimeout", []string{"-optimeout", "-1s"}, "optimeout must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(base[:len(base):len(base)], tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
