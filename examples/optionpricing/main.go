// Option pricing on the paper's 13-node cluster, with the network
// management module adapting to node load: partway through the run a
// local user loads three nodes, the rule base stops their workers, and
// the job still completes on the remaining capacity — the framework's
// non-intrusive cycle stealing in action.
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

var epoch = time.Date(2001, 10, 8, 9, 0, 0, 0, time.UTC)

func main() {
	clk := vclock.NewVirtual(epoch)
	fw, err := core.New(clk, core.InProc(nil, nil), core.Config{
		Workers:      cluster.ThirteenPC(),
		Monitoring:   true,
		PollInterval: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	job := montecarlo.NewJob(montecarlo.DefaultJobConfig())

	// An "interactive user" arrives on three nodes 20 seconds in and
	// leaves a minute later.
	script := func(f *core.Framework) {
		clk.Sleep(20 * time.Second)
		for i := 0; i < 3; i++ {
			f.Cluster.Nodes[i].Sim2.Start()
		}
		clk.Sleep(60 * time.Second)
		for i := 0; i < 3; i++ {
			f.Cluster.Nodes[i].Sim2.Stop()
		}
	}

	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, script) })
	if err != nil {
		log.Fatal(err)
	}

	price, err := job.Answer()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("American put: bracket [%.4f, %.4f], midpoint %.4f\n",
		price.Low, price.High, price.Midpoint())
	fmt.Printf("parallel time: %v over %d tasks\n", res.Metrics.ParallelTime, res.Metrics.Tasks)

	fmt.Println("\nrule-base signal log:")
	for _, ev := range res.Events {
		if ev.Err != nil {
			continue
		}
		fmt.Printf("  t=%6dms %-7s %-8s load=%3.0f%%  client=%.1fms worker=%.1fms\n",
			ev.At.Sub(epoch).Milliseconds(),
			ev.Node, ev.Signal, ev.Load,
			float64(ev.Record.ClientTime().Microseconds())/1000,
			float64(ev.Record.WorkerTime().Microseconds())/1000)
	}
}
