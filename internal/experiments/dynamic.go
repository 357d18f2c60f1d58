package experiments

import (
	"fmt"
	"time"

	"gospaces/internal/core"
	"gospaces/internal/metrics"
	"gospaces/internal/vclock"
)

// DynamicLoadPoint is one run of the §5.2.3 experiment: a fraction of the
// cluster's workers carry a sustained high load (the rule base keeps them
// stopped) while the application runs on the rest.
type DynamicLoadPoint struct {
	LoadedWorkers  int
	TotalWorkers   int
	MaxWorkerTime  time.Duration
	MaxMasterOver  time.Duration
	PlanPlusAgg    time.Duration
	TotalParallel  time.Duration
	TasksByStopped int // tasks executed on loaded nodes — must be 0
}

// DynamicWorkerBehavior runs app three times with 0 %, 25 % and 50 % of
// the workers loaded by the high-CPU simulator, per the paper's third
// experiment.
func DynamicWorkerBehavior(app AppName) ([]DynamicLoadPoint, error) {
	var out []DynamicLoadPoint
	for _, frac := range []float64{0, 0.25, 0.5} {
		pt, err := dynamicRun(app, frac)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func dynamicRun(app AppName, frac float64) (DynamicLoadPoint, error) {
	clk := vclock.NewVirtual(epoch)
	specs := clusterFor(app)
	fw, err := core.New(clk, core.InProc(nil, nil), withObs(core.Config{
		Workers:      specs,
		Monitoring:   true,
		PollInterval: time.Second,
	}))
	if err != nil {
		return DynamicLoadPoint{}, err
	}
	loaded := int(frac * float64(len(specs)))
	for i := 0; i < loaded; i++ {
		fw.Cluster.Nodes[i].Sim2.Start() // sustained 100 % load from t=0
	}
	job := jobFor(app)
	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		return DynamicLoadPoint{}, fmt.Errorf("experiments: dynamic %s (%.0f%% loaded): %w", app, frac*100, err)
	}
	pt := DynamicLoadPoint{
		LoadedWorkers: loaded,
		TotalWorkers:  len(specs),
		MaxWorkerTime: res.MaxWorkerTime,
		MaxMasterOver: res.Metrics.MaxMasterOverhead,
		PlanPlusAgg:   res.Metrics.TaskPlanningTime + res.Metrics.TaskAggregationTime,
		TotalParallel: res.Metrics.ParallelTime,
	}
	for i := 0; i < loaded; i++ {
		pt.TasksByStopped += res.WorkerStats[fw.Cluster.Nodes[i].Name].TasksDone
	}
	return pt, nil
}

// DynamicTable renders the experiment's four measured series.
func DynamicTable(title string, pts []DynamicLoadPoint) *metrics.Table {
	t := &metrics.Table{
		Title: title,
		Columns: []string{"loaded_workers", "max_worker_ms", "max_master_overhead_ms",
			"plan_plus_agg_ms", "total_parallel_ms"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d/%d", p.LoadedWorkers, p.TotalWorkers),
			metrics.Ms(p.MaxWorkerTime), metrics.Ms(p.MaxMasterOver),
			metrics.Ms(p.PlanPlusAgg), metrics.Ms(p.TotalParallel))
	}
	return t
}
