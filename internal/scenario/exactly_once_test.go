package scenario

import (
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/metrics"
)

// eoManifest is the chaos base for the exactly-once acceptance runs:
// ambiguous op timeouts injected on every retried mutation path (result
// writes and transaction commits), with the deadline far above benign
// latency so only the injected delays trip it.
func eoManifest(seed int64) Manifest {
	return Manifest{
		Seed:      seed,
		Workers:   4,
		Shards:    2,
		TxnTTL:    8 * time.Second,
		OpTimeout: 500 * time.Millisecond,
		// Execution spans ~6s on 4 workers (1.5s per task, inside the
		// 4s lease budget), comfortably around the 2s event below.
		App: AppSpec{Name: AppMonteCarlo, Tasks: 16, Work: 3 * time.Second, Spread: true},
		Faults: faults.PlanSpec{
			Seed: seed,
			Rules: []faults.RuleSpec{
				{Kind: faults.RuleDelay, From: "node/*", To: "master*", Method: "space.Write", Prob: 0.25, Delay: 800 * time.Millisecond},
				{Kind: faults.RuleDelay, From: "node/*", To: "master*", Method: "space.TxnCommit", Prob: 0.2, Delay: 800 * time.Millisecond},
			},
		},
	}
}

// TestExactlyOnceChaosShapes is the acceptance chaos run: with ambiguous
// op timeouts injected on every mutation path, a deployment must finish
// with zero lost AND zero duplicated results — across a kill-primary
// failover, a mid-split cutover and a shard crash-restart (the last also
// re-proving WAL recovery with memo records in the log).
func TestExactlyOnceChaosShapes(t *testing.T) {
	cases := []struct {
		name  string
		shape func(m *Manifest)
	}{
		{"kill-primary-failover", func(m *Manifest) {
			m.Replicas = 1
			m.Events = []Event{{At: 2 * time.Second, Kind: KillPrimary, Shard: 0}}
		}},
		{"mid-split-cutover", func(m *Manifest) {
			m.Elastic = true
			m.Events = []Event{{At: 2 * time.Second, Kind: Split, Shard: 0}}
		}},
		{"shard-crash-restart", func(m *Manifest) {
			m.Durable = true
			m.Fsync = "always"
			m.Events = []Event{{At: 2 * time.Second, Kind: RestartShard, Shard: 0}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := eoManifest(11)
			tc.shape(&m)
			rep := Run(m)
			if rep.Failed() {
				data, _ := m.MarshalIndent()
				t.Fatalf("violations: %v\nmanifest:\n%s", rep.Violations, data)
			}
			// The run must actually have exercised the machinery: at
			// least one ambiguous outcome retried, at least one retry
			// answered from a memo table. Both streams are seeded, so
			// this does not flake.
			if got := rep.Result.Counters[metrics.CounterRetryAmbiguous]; got == 0 {
				t.Errorf("no ambiguous retries recorded: the injected delays never tripped the deadline (fault events: %v)", rep.FaultEvents)
			}
			if got := rep.Result.Counters[metrics.CounterRetryExhausted]; got != 0 {
				t.Errorf("%d mutations exhausted their retry budget; exactness held by luck", got)
			}
		})
	}
}
