package scenario

import (
	"testing"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/faults"
	"gospaces/internal/metrics"
)

// TestReplicatedPrimarySurvivesLookupOutageAtStart: the lookup service is
// down for the first 2.5 s of a replicated run. The workers' discovery
// retries through the outage, and all that time the primary's registration
// — a lease of FailoverTimeout — must be kept alive by its pump. At the
// parent commit core.Run built the worker nodes before starting the host's
// pumps, so nothing renewed the lease: it lapsed, the standby promoted for
// no reason or the workers found no shard at all (seed 13 of the generator
// sweep: "0 of 1 javaspace shards registered"; seed 30: "promotions = 2,
// want 0").
func TestReplicatedPrimarySurvivesLookupOutageAtStart(t *testing.T) {
	m := Manifest{
		Seed:      13,
		Workers:   3,
		Shards:    1,
		Replicas:  1,
		TxnTTL:    8 * time.Second,
		OpTimeout: 500 * time.Millisecond,
		App:       AppSpec{Name: AppMonteCarlo, Tasks: 16, Work: 2 * time.Second},
		Faults: faults.PlanSpec{Seed: 13, Crashes: []faults.CrashWindowSpec{
			{Endpoint: discovery.WellKnownAddress, End: 2500 * time.Millisecond},
		}},
	}
	rep := Run(m)
	if rep.Failed() {
		data, _ := m.MarshalIndent()
		t.Fatalf("violations: %v\nmanifest:\n%s", rep.Violations, data)
	}
	if got := rep.Result.Counters[metrics.CounterReplPromotions]; got != 0 {
		t.Fatalf("promotions = %d, want 0: nothing killed the primary", got)
	}
}
