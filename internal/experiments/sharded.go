package experiments

import (
	"fmt"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/shardhost"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
)

// ShardedPoint is one (workers, shards) cell of the sharded-space
// scalability sweep.
type ShardedPoint struct {
	Workers          int
	Shards           int
	ParallelTime     time.Duration
	TaskPlanningTime time.Duration
	MaxWorkerTime    time.Duration
}

// shardedWorkerCounts are the cluster sizes of the sweep.
var shardedWorkerCounts = []int{1, 2, 4, 8, 12}

// shardedJobConfig sizes the option-pricing job for the sharded sweep: a
// smaller bag of tasks than Figure 6 with cheap planning, so the knee is
// set by space-server saturation (Model.SpaceOp) rather than by the
// master's serial planning work — the bottleneck sharding removes.
func shardedJobConfig() montecarlo.JobConfig {
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 3000
	cfg.SimsPerTask = 50 // → 60 subtasks
	cfg.WorkPerSubtask = 100 * time.Millisecond
	cfg.PlanningCostPerTask = 20 * time.Millisecond
	cfg.AggregationCostPerResult = 5 * time.Millisecond
	cfg.ShardSpread = true // per-task keys: the bag spreads across shards
	return cfg
}

// ShardedKnee reruns the Figure-6-shaped sweep against a saturating space
// server (every space operation costs 8 ms of modeled server CPU) with 1
// and with 4 shards. With one shard the server's FIFO queue saturates as
// workers are added and the parallel-time curve flattens early; with four
// shards the same operation stream spreads over four servers and the knee
// moves right.
func ShardedKnee() ([]ShardedPoint, error) {
	model := transport.LAN2001()
	model.SpaceOp = 8 * time.Millisecond
	var out []ShardedPoint
	for _, shards := range []int{1, 4} {
		for _, n := range shardedWorkerCounts {
			clk := vclock.NewVirtual(epoch)
			fw, err := core.New(clk, core.InProc(&model, nil), withObs(core.Config{
				Workers: cluster.Uniform(n, 1.0),
				Spec:    shardhost.Spec{Shards: shards},
			}))
			if err != nil {
				return nil, err
			}
			job := montecarlo.NewJob(shardedJobConfig())
			var res core.Result
			clk.Run(func() { res, err = fw.Run(job, nil) })
			if err != nil {
				return nil, fmt.Errorf("experiments: sharded %d workers × %d shards: %w", n, shards, err)
			}
			out = append(out, ShardedPoint{
				Workers:          n,
				Shards:           shards,
				ParallelTime:     res.Metrics.ParallelTime,
				TaskPlanningTime: res.Metrics.TaskPlanningTime,
				MaxWorkerTime:    res.MaxWorkerTime,
			})
		}
	}
	return out, nil
}
