package experiments

import (
	"fmt"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/metrics"
	"gospaces/internal/vclock"
)

// IntrusivenessResult quantifies the paper's central claim — that
// monitoring and reacting to system state minimizes the intrusiveness of
// cycle stealing — by measuring how much a local user's job slows down
// while the framework computes on the same node, with and without the
// network management module.
type IntrusivenessResult struct {
	Adaptive bool
	// UserJobTime is the local user's job elapsed time while sharing the
	// node with the framework.
	UserJobTime time.Duration
	// BaselineTime is the same job's elapsed time on an idle node.
	BaselineTime time.Duration
	// FrameworkTime is the framework job's parallel time in this run.
	FrameworkTime time.Duration
}

// Slowdown returns the user's slowdown factor (1.0 = unaffected).
func (r IntrusivenessResult) Slowdown() float64 {
	if r.BaselineTime <= 0 {
		return 0
	}
	return float64(r.UserJobTime) / float64(r.BaselineTime)
}

// userJobWork is the local user's total CPU demand (reference-node time),
// executed in small slices so contention is re-sampled as the framework's
// worker comes and goes.
const (
	userJobWork      = 5 * time.Second
	userJobSlice     = 250 * time.Millisecond
	userJobIntensity = 60 // percent: inside the rule base's stop band
)

// runUserJob executes the local user's job on machine and returns its
// elapsed time.
func runUserJob(clk vclock.Clock, m interface {
	ComputeAs(string, time.Duration, float64)
}) time.Duration {
	start := clk.Now()
	for done := time.Duration(0); done < userJobWork; done += userJobSlice {
		m.ComputeAs("interactive-user", userJobSlice, userJobIntensity)
	}
	return clk.Since(start)
}

// Intrusiveness runs the option-pricing job on a single-node cluster
// while a local user's job arrives three seconds in, once with the
// network management module (adaptive) and once without (aggressive
// cycle stealing). It returns both results, adaptive first.
func Intrusiveness() ([]IntrusivenessResult, error) {
	baseline := userJobBaseline()
	var out []IntrusivenessResult
	for _, adaptive := range []bool{true, false} {
		r, err := intrusivenessRun(adaptive, baseline)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// userJobBaseline measures the user job alone on an idle node.
func userJobBaseline() time.Duration {
	clk := vclock.NewVirtual(epoch)
	c := cluster.New(clk, cluster.Uniform(1, 1.0))
	var elapsed time.Duration
	clk.Run(func() {
		elapsed = runUserJob(clk, c.Nodes[0].Machine)
	})
	return elapsed
}

func intrusivenessRun(adaptive bool, baseline time.Duration) (IntrusivenessResult, error) {
	clk := vclock.NewVirtual(epoch)
	fw, err := core.New(clk, core.InProc(nil, nil), withObs(core.Config{
		Workers:      cluster.Uniform(1, 1.0),
		Monitoring:   adaptive,
		PollInterval: 500 * time.Millisecond,
	}))
	if err != nil {
		return IntrusivenessResult{}, err
	}
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 6000 // 60 subtasks: outlives the user's visit
	cfg.PlanningCostPerTask = 10 * time.Millisecond
	job := montecarlo.NewJob(cfg)
	node := fw.Cluster.Nodes[0]

	var userTime time.Duration
	script := func(*core.Framework) {
		clk.Sleep(3 * time.Second)
		userTime = runUserJob(clk, node.Machine)
	}
	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, script) })
	if err != nil {
		return IntrusivenessResult{}, fmt.Errorf("experiments: intrusiveness (adaptive=%v): %w", adaptive, err)
	}
	return IntrusivenessResult{
		Adaptive:      adaptive,
		UserJobTime:   userTime,
		BaselineTime:  baseline,
		FrameworkTime: res.Metrics.ParallelTime,
	}, nil
}

// IntrusivenessTable renders the comparison.
func IntrusivenessTable(results []IntrusivenessResult) *metrics.Table {
	t := &metrics.Table{
		Title: "Intrusiveness — local user's job slowdown with and without adaptation",
		Columns: []string{"mode", "user_job_ms", "idle_baseline_ms", "slowdown",
			"framework_parallel_ms"},
	}
	for _, r := range results {
		mode := "non-adaptive (no monitoring)"
		if r.Adaptive {
			mode = "adaptive (rule base)"
		}
		t.AddRow(mode, metrics.Ms(r.UserJobTime), metrics.Ms(r.BaselineTime),
			fmt.Sprintf("%.2fx", r.Slowdown()), metrics.Ms(r.FrameworkTime))
	}
	return t
}
