package experiments

import (
	"fmt"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/shardhost"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
)

// FaultPoint is one crash-rate cell of the fault-tolerance sweep.
type FaultPoint struct {
	// CrashRate is the per-take probability that the worker dies right
	// after taking a task (before writing its result).
	CrashRate float64
	// Crashes is how many crashes the plan actually injected.
	Crashes uint64
	// ParallelTime is the job's completion time at this rate.
	ParallelTime time.Duration
	// OverheadPct is the completion-time overhead relative to the
	// fault-free baseline, in percent.
	OverheadPct float64
}

// faultSweepRates are the swept per-take crash probabilities.
var faultSweepRates = []float64{0, 0.05, 0.10, 0.20, 0.40}

// FaultSweep quantifies the cost of the paper's §3 fault-tolerance
// mechanism: workers crash mid-task (between Take and result Write) with
// increasing probability, each crash orphaning a leased transaction that
// the master's sweeper must expire before the task reappears. Completion
// time grows with the crash rate — the overhead is the recovery latency
// (lease TTL + re-execution), not lost work. Deterministic on the virtual
// clock with a fixed fault seed.
func FaultSweep() ([]FaultPoint, error) {
	cfg := shardedJobConfig()
	out := make([]FaultPoint, 0, len(faultSweepRates))
	var baseline time.Duration
	for _, rate := range faultSweepRates {
		clk := vclock.NewVirtual(epoch)
		plan := faults.NewPlan(42)
		if rate > 0 {
			// AfterHandler on space.Take*: the crash lands exactly in the
			// window where the worker holds a task under its transaction.
			// Down briefly so the cluster keeps its capacity; the lease
			// (TxnTTL) still expires while the node is dark.
			plan.CrashProbOnCall("node/*", "", space.OpTake.Method()+"*", rate,
				faults.AfterHandler, "", 10*time.Second)
		}
		fw, err := core.New(clk, core.InProc(nil, plan), withObs(core.Config{
			Workers: cluster.Uniform(4, 1.0),
			Spec: shardhost.Spec{
				Shards: 2,
				TxnTTL: 5 * time.Second,
			},
			ResultTimeout: 10 * time.Minute,
		}))
		if err != nil {
			return nil, err
		}
		job := montecarlo.NewJob(cfg)
		var res core.Result
		clk.Run(func() { res, err = fw.Run(job, nil) })
		if err != nil {
			return nil, fmt.Errorf("experiments: fault sweep at rate %.2f: %w", rate, err)
		}
		if price, aerr := job.Answer(); aerr != nil || price.Sims != cfg.TotalSims {
			return nil, fmt.Errorf("experiments: fault sweep at rate %.2f: aggregated %d sims, want %d (err %v)",
				rate, price.Sims, cfg.TotalSims, aerr)
		}
		pt := FaultPoint{
			CrashRate:    rate,
			Crashes:      res.FaultEvents[faults.EventCrash],
			ParallelTime: res.Metrics.ParallelTime,
		}
		if rate == 0 {
			baseline = pt.ParallelTime
		} else if baseline > 0 {
			pt.OverheadPct = 100 * (float64(pt.ParallelTime)/float64(baseline) - 1)
		}
		out = append(out, pt)
	}
	return out, nil
}

// FaultSweepTable renders the sweep as a figure-style series.
func FaultSweepTable(pts []FaultPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   "Fault sweep: completion time vs worker crash rate (4 workers, 2 shards, 5 s lease)",
		Columns: []string{"crash_rate", "crashes", "parallel_ms", "overhead_pct"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.2f", p.CrashRate), fmt.Sprint(p.Crashes),
			metrics.Ms(p.ParallelTime), fmt.Sprintf("%.1f", p.OverheadPct))
	}
	return t
}
