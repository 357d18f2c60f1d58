// Web page pre-fetching: compute page ranks for a synthetic web page
// cluster with the distributed power iteration (25 strip tasks per
// iteration across a simulated 5-node cluster), then use the ranks to
// decide which linked pages a server should pre-fetch for a browsing
// session.
package main

import (
	"fmt"
	"log"
	"time"

	"gospaces/internal/apps/pagerank"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/vclock"
)

func main() {
	clk := vclock.NewVirtual(time.Date(2001, 10, 8, 9, 0, 0, 0, time.UTC))
	fw, err := core.New(clk, core.InProc(nil, nil), core.Config{Workers: cluster.FivePC()})
	if err != nil {
		log.Fatal(err)
	}
	cfg := pagerank.DefaultJobConfig()
	job := pagerank.NewJob(cfg)

	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ranked %d pages in %d iterations (%d tasks, parallel time %v)\n",
		cfg.Graph.N, res.Metrics.Phases, res.Metrics.Tasks, res.Metrics.ParallelTime)

	scores := job.Ranks()
	// Simulate a browsing session: from each visited page, pre-fetch the
	// two most important linked pages.
	session := []int{0, 7, 42, 137}
	for _, page := range session {
		next := pagerank.Prefetch(cfg.Graph, scores, page, 2)
		fmt.Printf("  visiting page %3d → pre-fetch %v", page, next)
		for _, p := range next {
			fmt.Printf("  (rank %.5f)", scores[p])
		}
		fmt.Println()
	}
}
