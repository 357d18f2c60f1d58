// Parallel ray tracing: render the demo scene on a simulated 5-node
// cluster (the paper's 600×600 plane in 24 strips of 25×600) and write
// the composed image to render.ppm.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"gospaces/internal/apps/raytrace"
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
	job := raytrace.NewJob(raytrace.DefaultJobConfig())

	var res core.Result
	clk.Run(func() { res, err = fw.Run(job, nil) })
	if err != nil {
		log.Fatal(err)
	}

	img, complete := job.Image()
	if !complete {
		log.Fatal("image incomplete")
	}
	w, h := job.Size()
	var buf bytes.Buffer
	job.WritePPM(&buf)
	if err := os.WriteFile("render.ppm", buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered %dx%d (%d bytes) to render.ppm\n", w, h, len(img))
	fmt.Printf("max worker time: %v   parallel time: %v   planning: %v\n",
		res.MaxWorkerTime, res.Metrics.ParallelTime, res.Metrics.TaskPlanningTime)
	for node, st := range res.WorkerStats {
		fmt.Printf("  %s rendered %d strips\n", node, st.TasksDone)
	}
}
