package core_test

import (
	"fmt"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/vclock"
)

// ExampleFramework prices an option on a simulated 4-node cluster under
// the deterministic virtual clock; the timing metrics reproduce exactly
// on any host.
func ExampleFramework() {
	clk := vclock.NewVirtual(time.Date(2001, 10, 8, 9, 0, 0, 0, time.UTC))
	fw, err := core.New(clk, core.InProc(nil, nil), core.Config{Workers: cluster.Uniform(4, 1.0)})
	if err != nil {
		panic(err)
	}

	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 1000 // 10 subtasks
	job := montecarlo.NewJob(cfg)

	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		panic(err)
	}
	price, err := job.Answer()
	if err != nil {
		panic(err)
	}
	fmt.Printf("tasks: %d over %d workers\n", res.Metrics.Tasks, len(res.WorkerStats))
	fmt.Printf("planning: %dms\n", res.Metrics.TaskPlanningTime.Milliseconds())
	fmt.Printf("bracket valid: %v\n", price.Low <= price.High+4*(price.LowErr+price.HighErr))
	// Output:
	// tasks: 10 over 4 workers
	// planning: 4000ms
	// bracket valid: true
}
