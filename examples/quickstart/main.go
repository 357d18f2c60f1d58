// Quickstart: run a small option-pricing job on a simulated 4-node
// cluster in a few lines. The virtual clock makes the run deterministic
// and instant in wall time while still reporting realistic 2001-era
// cluster timings.
package main

import (
	"fmt"
	"log"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/vclock"
)

func main() {
	clk := vclock.NewVirtual(time.Date(2001, 10, 8, 9, 0, 0, 0, time.UTC))
	fw, err := core.New(clk, core.InProc(nil, nil), core.Config{Workers: cluster.Uniform(4, 1.0)})
	if err != nil {
		log.Fatal(err)
	}

	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 2000 // 20 subtasks: a quick demonstration
	job := montecarlo.NewJob(cfg)

	var res core.Result
	clk.Run(func() {
		res, err = fw.Run(job, nil)
	})
	if err != nil {
		log.Fatal(err)
	}

	price, err := job.Answer()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("American %s: low %.4f  high %.4f  (mid %.4f, %d simulations)\n",
		cfg.Params.Type, price.Low, price.High, price.Midpoint(), price.Sims)
	fmt.Printf("tasks: %d   planning: %v   aggregation: %v   parallel: %v\n",
		res.Metrics.Tasks, res.Metrics.TaskPlanningTime,
		res.Metrics.TaskAggregationTime, res.Metrics.ParallelTime)
	for node, st := range res.WorkerStats {
		fmt.Printf("  %s: %d tasks in %v\n", node, st.TasksDone, st.WorkerTime())
	}
}
