package e2e

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gospaces/internal/core"
	"gospaces/internal/discovery"
	"gospaces/internal/faults"
	"gospaces/internal/shardhost"
)

// TestChaosEveryWorkerCrashesOnceMidTask is the paper's §3 fault-tolerance
// claim as an executable scenario: each of four workers is killed exactly
// once immediately after it takes a task — holding the entry under its
// leased transaction — and before it can write the result. The lease
// expires, the master's sweeper aborts the orphaned transaction, the task
// reappears in the space and completes on a (recovered or different)
// worker. The job must finish with zero lost and zero duplicated work.
func TestChaosEveryWorkerCrashesOnceMidTask(t *testing.T) {
	plan := faults.NewPlan(chaosSeed(t, 42))
	// AfterHandler on space.Take*: the worker dies precisely between its
	// successful Take and its result Write — the worst-case window. Down
	// for 30s, so the 8s lease expires while the node is dark and the
	// worker rejoins later as a "new" node.
	plan.CrashOnCall("node/*", "", "space.Take*", 1, faults.AfterHandler, "", 30*time.Second)

	const workers = 4
	res, job := runChaos(t, plan, workers, core.Config{
		Spec: shardhost.Spec{
			Shards: 2,
			TxnTTL: 8 * time.Second,
		},
		ResultTimeout: 5 * time.Minute,
	})

	// Zero lost, zero duplicated: the aggregated simulation count must be
	// exactly the configured total — a lost task would leave it short, a
	// double-executed one would overshoot — and no task aggregated twice.
	assertExactResults(t, job, chaosJobConfig())
	wantTasks := job.ResultCount()
	if res.Metrics.Tasks != wantTasks {
		t.Fatalf("planned %d tasks, aggregated %d results", res.Metrics.Tasks, wantTasks)
	}

	// Every worker crashed exactly once.
	if got := res.FaultEvents[faults.EventCrash]; got != workers {
		t.Fatalf("crash events = %d, want %d (one per worker)", got, workers)
	}
	for i := 1; i <= workers; i++ {
		ep := fmt.Sprintf("faults:crash:node/node%02d", i)
		if got := res.FaultEvents[ep]; got != 1 {
			t.Fatalf("%s = %d, want exactly 1", ep, got)
		}
	}
	// The crashes were visible to the workers as hard space errors (their
	// abort/write attempts against a dead network fail).
	hardErrs := 0
	done := 0
	for _, st := range res.WorkerStats {
		hardErrs += st.SpaceErrors
		done += st.TasksDone
	}
	if hardErrs == 0 {
		t.Fatal("no worker observed a hard space error despite four crashes")
	}
	if done != wantTasks {
		t.Fatalf("sum of worker TasksDone = %d, want %d", done, wantTasks)
	}
}

// TestChaosSameSeedSameSchedule: determinism is the point of the fault
// layer — the same seed over the virtual clock must reproduce the exact
// same injected-event history, so a failing chaos run can be replayed.
func TestChaosSameSeedSameSchedule(t *testing.T) {
	run := func(seed int64) map[string]uint64 {
		plan := faults.NewPlan(seed)
		plan.CrashOnCall("node/*", "", "space.Take*", 1, faults.AfterHandler, "", 20*time.Second)
		// A probabilistic rule exercises the seeded RNG, not just counters.
		plan.DropCalls("node/*", "master*", "space.Write", 0.25)
		res, job := runChaos(t, plan, 3, core.Config{
			Spec: shardhost.Spec{
				Shards: 2,
				TxnTTL: 8 * time.Second,
			},
			ResultTimeout: 5 * time.Minute,
		})
		if price, err := job.Answer(); err != nil || price.Sims != chaosJobConfig().TotalSims {
			t.Fatalf("seed %d: sims %d err %v", seed, price.Sims, err)
		}
		return res.FaultEvents
	}
	seed := chaosSeed(t, 7)
	a, b := run(seed), run(seed)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault histories:\n  run 1: %v\n  run 2: %v", a, b)
	}
	if a[faults.EventDrop] == 0 {
		t.Fatal("probabilistic drop rule never fired; schedule comparison is vacuous")
	}
}

// TestChaosLookupServiceCrashRestart: the lookup service is dark for the
// first two seconds of the deployment. Workers joining during the outage
// retry discovery with backoff instead of failing the run, and the job
// still completes.
func TestChaosLookupServiceCrashRestart(t *testing.T) {
	plan := faults.NewPlan(chaosSeed(t, 9))
	plan.CrashEndpoint(discovery.WellKnownAddress, 0, 2*time.Second)

	res, job := runChaos(t, plan, 3, core.Config{
		Spec: shardhost.Spec{
			Shards: 2,
		},
		ResultTimeout: 5 * time.Minute,
	})
	if price, err := job.Answer(); err != nil || price.Sims != chaosJobConfig().TotalSims {
		t.Fatalf("sims %d err %v, want %d", price.Sims, err, chaosJobConfig().TotalSims)
	}
	if res.FaultEvents[faults.EventDeadCall] == 0 {
		t.Fatal("no dead calls counted: the lookup outage never bit")
	}
}
