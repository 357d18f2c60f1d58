// Package harness assembles and drives in-process framework deployments
// for the end-to-end suites. It is the one place that knows how to spin a
// simulated cluster up — virtual clock, worker nodes, fault plan, job —
// and run it to completion, so the hand-written chaos/failover/reshard/
// durability scenarios and the randomized scenario runner (package
// scenario) share identical spin-up and teardown instead of five private
// copies.
//
// The package deliberately has no testing dependency: failures surface as
// errors, so the scenario soak (cmd/expt scenario) can use it from a
// plain binary while the _test.go wrappers in internal/e2e turn the same
// errors into t.Fatal.
package harness

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/faults"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// Epoch is the canonical virtual-clock start of every e2e deployment —
// the date of the source paper's venue. A fixed epoch keeps scripted
// fault windows and replayed schedules identical across runs.
var Epoch = time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC)

// SeedEnv is the environment variable CI uses to pin (or vary) seeded
// schedules without editing tests.
const SeedEnv = "GOSPACES_FAULT_SEED"

// SeedFromEnv returns the seed override from SeedEnv, or def when unset.
func SeedFromEnv(def int64) (int64, error) {
	s := os.Getenv(SeedEnv)
	if s == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %w", SeedEnv, s, err)
	}
	return n, nil
}

// ChaosJobConfig sizes the option-pricing bag of tasks for chaos runs:
// small enough to finish quickly under the virtual clock, spread across
// shards so worker takes exercise the scatter path.
func ChaosJobConfig() montecarlo.JobConfig {
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 1200
	cfg.SimsPerTask = 50 // → 24 subtasks
	cfg.WorkPerSubtask = 150 * time.Millisecond
	cfg.PlanningCostPerTask = 10 * time.Millisecond
	cfg.AggregationCostPerResult = 5 * time.Millisecond
	cfg.ShardSpread = true
	return cfg
}

// FailoverJobConfig sizes the bag of tasks so the job comfortably spans
// scripted kill/heal windows under the virtual clock. The modeled work is
// charged as WorkPerSubtask×Sims/100, so total execution time is
// TotalSims/100 × WorkPerSubtask / workers — 3 s here gives ≈9 s of
// execution on 4 workers, well past every scripted kill.
func FailoverJobConfig() montecarlo.JobConfig {
	cfg := ChaosJobConfig()
	cfg.WorkPerSubtask = 3 * time.Second
	return cfg
}

// RunSpec describes one in-process cluster run.
type RunSpec struct {
	// Epoch is the virtual clock's start time (zero value: Epoch).
	Epoch time.Time
	// Workers is the cluster size; nodes are uniform 1.0-speed machines
	// named node01…nodeNN. Ignored when Config.Workers is already set.
	Workers int
	// Model and Plan are core.InProc's: cost model, or nil for LAN2001,
	// and fault plan, or nil. The plan wraps every client the deployment
	// dials and every WAL writer it opens; each run needs a fresh one.
	Model *transport.Model
	Plan  *faults.Plan
	// Config is the deployment shape; Workers is filled in from above.
	Config core.Config
	// Job is the application to run.
	Job core.Job
	// Script, when non-nil, runs concurrently with the job on the
	// framework's clock — the chaos scenarios' control plane.
	Script func(*core.Framework)
}

// Outcome is everything a completed run exposes for assertions.
type Outcome struct {
	Result    core.Result
	Framework *core.Framework
	Clock     *vclock.Virtual
}

// Run assembles a framework from spec and executes the job to completion
// under a fresh virtual clock. The returned error is the run's own error
// (collection timeout, discovery failure); invariant checking is the
// caller's business.
func Run(spec RunSpec) (Outcome, error) {
	epoch := spec.Epoch
	if epoch.IsZero() {
		epoch = Epoch
	}
	clk := vclock.NewVirtual(epoch)
	cfg := spec.Config
	if cfg.Workers == nil {
		cfg.Workers = cluster.Uniform(spec.Workers, 1.0)
	}
	fw, err := core.New(clk, core.InProc(spec.Model, spec.Plan), cfg)
	if err != nil {
		return Outcome{}, err
	}
	var res core.Result
	clk.Run(func() { res, err = fw.Run(spec.Job, spec.Script) })
	return Outcome{Result: res, Framework: fw, Clock: clk}, err
}

// ExactSims fails (with a descriptive error) unless job aggregated
// exactly want simulations — short means lost work, over means
// duplicated work — and no task's result twice, which keeps the count.
func ExactSims(job *montecarlo.Job, want int) error {
	price, err := job.Answer()
	if err != nil {
		return fmt.Errorf("answer: %w", err)
	}
	if price.Sims != want {
		return fmt.Errorf("aggregated %d simulations, want exactly %d (lost or duplicated work)", price.Sims, want)
	}
	if len(price.Repeats) > 0 {
		return fmt.Errorf("aggregated the results of tasks %v twice (duplicated work)", price.Repeats)
	}
	return nil
}
