package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunFlagValidationMatrix pins that run() rejects a bad shard flag —
// before any socket is bound — with the host's validation error. The full
// table of rejected specs is shardhost's TestSpecValidate; this is the
// wiring from flags to it.
func TestRunFlagValidationMatrix(t *testing.T) {
	base := config{
		addr: "127.0.0.1:0", lookup: "127.0.0.1:0", job: "montecarlo",
		resultTimeout: time.Minute, fsync: "always", shards: 1, replack: "sync",
		failoverTimeout: 2 * time.Second,
	}
	cases := []struct {
		name string
		edit func(*config)
		want string
	}{
		{"replicas out of range", func(c *config) { c.replicas = 2 }, "replicas must be 0 or 1"},
		{"negative max-inflight", func(c *config) { c.maxInflight = -1 }, "max-inflight must be >= 0"},
		{"bad fsync", func(c *config) { c.dataDir, c.fsync = t.TempDir(), "sometimes" }, "bad -fsync"},
		{"bad replack", func(c *config) { c.replicas, c.replack = 1, "eventually" }, "bad -replack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.edit(&c)
			err := run(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
