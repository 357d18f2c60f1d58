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

// GranularityPoint measures one task-decomposition granularity under a
// recurring local-user load: because signals never preempt a task, a
// coarser decomposition makes the worker hold the node longer after a
// Stop is ordered — the user waits for the in-flight task. This
// experiment quantifies the trade-off behind the paper's guidance that
// the framework "targets applications … divisible into relatively
// coarse-grained subtasks": coarse enough to amortize space overheads
// (see Figure 6), fine enough to stay non-intrusive.
type GranularityPoint struct {
	SimsPerTask int
	Subtasks    int
	// MaxUserWait is the worst slowdown of the user's job slices (the
	// intrusion the in-flight task causes).
	UserJobTime time.Duration
	// FrameworkTime is the framework job's parallel time.
	FrameworkTime time.Duration
}

// Granularity runs the option-pricing job at several task granularities
// on a monitored single-node cluster with a user job arriving mid-run.
func Granularity() ([]GranularityPoint, error) {
	var out []GranularityPoint
	for _, simsPerTask := range []int{50, 250, 1250} {
		pt, err := granularityRun(simsPerTask)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func granularityRun(simsPerTask int) (GranularityPoint, error) {
	clk := vclock.NewVirtual(epoch)
	fw, err := core.New(clk, core.InProc(nil, nil), withObs(core.Config{
		Workers:      cluster.Uniform(1, 1.0),
		Monitoring:   true,
		PollInterval: 500 * time.Millisecond,
	}))
	if err != nil {
		return GranularityPoint{}, err
	}
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 10000
	cfg.SimsPerTask = simsPerTask
	// Total work is constant across granularities: the program's modeled
	// cost scales with the batch size (WorkPerSubtask is per 100 sims;
	// see montecarlo.program.Execute), so only the per-task quantum
	// changes here.
	cfg.PlanningCostPerTask = 5 * time.Millisecond
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
		return GranularityPoint{}, fmt.Errorf("experiments: granularity %d: %w", simsPerTask, err)
	}
	return GranularityPoint{
		SimsPerTask:   simsPerTask,
		Subtasks:      res.Metrics.Tasks,
		UserJobTime:   userTime,
		FrameworkTime: res.Metrics.ParallelTime,
	}, nil
}

// GranularityTable renders the study.
func GranularityTable(pts []GranularityPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   "Task granularity under churn — intrusion vs decomposition",
		Columns: []string{"sims_per_task", "subtasks", "user_job_ms", "framework_parallel_ms"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprint(p.SimsPerTask), fmt.Sprint(p.Subtasks),
			metrics.Ms(p.UserJobTime), metrics.Ms(p.FrameworkTime))
	}
	return t
}
