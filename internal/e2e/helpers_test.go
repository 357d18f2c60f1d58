package e2e

// The spin-up/teardown helpers shared by the chaos, failover, reshard and
// durability suites. They are thin testing wrappers over
// internal/e2e/harness — the same assembly code the randomized scenario
// runner (internal/scenario) uses — so a deployment shape that works here
// works there, and vice versa.

import (
	"testing"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/core"
	"gospaces/internal/e2e/harness"
	"gospaces/internal/faults"
	"gospaces/internal/vclock"
)

var chaosEpoch = harness.Epoch

// newFramework is core.New failing tb on an assembly error.
func newFramework(tb testing.TB, clk vclock.Clock, net core.Net, cfg core.Config) *core.Framework {
	tb.Helper()
	f, err := core.New(clk, net, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// ring0 is shard 0's ring ID — on the in-process network, the master's
// address.
func ring0(f *core.Framework) string {
	id, _ := f.Host.RingID(0)
	return id
}

// chaosSeed lets CI pin (or vary) the fault schedule without editing the
// test: GOSPACES_FAULT_SEED=<n>.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	n, err := harness.SeedFromEnv(def)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func chaosJobConfig() montecarlo.JobConfig { return harness.ChaosJobConfig() }

func failoverJobConfig() montecarlo.JobConfig { return harness.FailoverJobConfig() }

// runChaos assembles a framework with the given plan and runs the
// chaos-sized job to completion under a fresh virtual clock.
func runChaos(t *testing.T, plan *faults.Plan, workers int, cfg core.Config) (core.Result, *montecarlo.Job) {
	t.Helper()
	res, job, _ := runFailover(t, plan, workers, cfg, chaosJobConfig(), nil)
	return res, job
}

// runFailover is runChaos with the job config and chaos script exposed,
// returning the framework for post-run state assertions.
func runFailover(t *testing.T, plan *faults.Plan, workers int, cfg core.Config,
	jc montecarlo.JobConfig, script func(*core.Framework)) (core.Result, *montecarlo.Job, *core.Framework) {
	t.Helper()
	job := montecarlo.NewJob(jc)
	out, err := harness.Run(harness.RunSpec{
		Workers: workers,
		Plan:    plan,
		Config:  cfg,
		Job:     job,
		Script:  script,
	})
	if err != nil {
		t.Fatalf("e2e run: %v", err)
	}
	return out.Result, job, out.Framework
}

// assertExactResults fails unless the aggregated simulation count matches
// the configured total exactly — short means lost work, over means
// duplicated work.
func assertExactResults(t *testing.T, job *montecarlo.Job, jc montecarlo.JobConfig) {
	t.Helper()
	if err := harness.ExactSims(job, jc.TotalSims); err != nil {
		t.Fatal(err)
	}
}
