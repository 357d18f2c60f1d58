// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated cluster: the three scalability figures
// (6–8), the three adaptation-protocol figures (9–11), the dynamic-load
// experiment (§5.2.3), and the application-classification table (Table 2).
// All runs execute on the deterministic virtual clock, so the numbers are
// reproducible bit-for-bit across hosts; EXPERIMENTS.md records them next
// to the paper's expectations.
package experiments

import (
	"fmt"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/pagerank"
	"gospaces/internal/apps/raytrace"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/vclock"
)

// epoch is the virtual start time of every experiment.
var epoch = time.Date(2001, 10, 8, 9, 0, 0, 0, time.UTC)

// sessionObs, when set, is attached to every framework the harness
// assembles: one tracer and one registry span all of a session's runs
// (each run still gets its own virtual clock — the tracer takes the
// clock per call).
var sessionObs *obs.Obs

// SetObs installs (or, with nil, removes) the session observability
// layer. cmd/expt calls this when -trace or -obs is given.
func SetObs(o *obs.Obs) { sessionObs = o }

// withObs attaches the session's observability layer to one run's
// framework configuration.
func withObs(cfg core.Config) core.Config {
	cfg.Obs = sessionObs
	return cfg
}

// AppName selects one of the paper's three applications.
type AppName string

// The three evaluated applications.
const (
	OptionPricing AppName = "optionpricing"
	RayTracing    AppName = "raytracing"
	Prefetching   AppName = "prefetching"
)

// jobFor builds the paper-configured job for an application. Each call
// returns a fresh job (jobs are single-use).
func jobFor(app AppName) core.Job {
	switch app {
	case OptionPricing:
		return montecarlo.NewJob(montecarlo.DefaultJobConfig())
	case RayTracing:
		return raytrace.NewJob(raytrace.DefaultJobConfig())
	case Prefetching:
		return pagerank.NewJob(pagerank.DefaultJobConfig())
	default:
		panic(fmt.Sprintf("experiments: unknown app %q", app))
	}
}

// clusterFor returns the paper's testbed for an application: the
// option-pricing scheme ran on thirteen 300 MHz PCs, the other two on
// five 800 MHz PCs (§5).
func clusterFor(app AppName) []cluster.NodeSpec {
	if app == OptionPricing {
		return cluster.ThirteenPC()
	}
	return cluster.FivePC()
}

// ScalabilityPoint is one x-position of Figures 6–8.
type ScalabilityPoint struct {
	Workers             int
	MaxWorkerTime       time.Duration
	ParallelTime        time.Duration
	TaskPlanningTime    time.Duration
	TaskAggregationTime time.Duration
}

// Scalability runs app on 1..maxWorkers workers (without the network
// management module, as in the paper's first experiment) and returns one
// point per cluster size.
func Scalability(app AppName, maxWorkers int) ([]ScalabilityPoint, error) {
	specs := clusterFor(app)
	if maxWorkers > len(specs) {
		maxWorkers = len(specs)
	}
	var out []ScalabilityPoint
	for n := 1; n <= maxWorkers; n++ {
		clk := vclock.NewVirtual(epoch)
		fw, err := core.New(clk, core.InProc(nil, nil), withObs(core.Config{Workers: specs[:n]}))
		if err != nil {
			return nil, err
		}
		job := jobFor(app)
		var res core.Result
		clk.Run(func() { res, err = fw.Run(job, nil) })
		if err != nil {
			return nil, fmt.Errorf("experiments: %s with %d workers: %w", app, n, err)
		}
		out = append(out, ScalabilityPoint{
			Workers:             n,
			MaxWorkerTime:       res.MaxWorkerTime,
			ParallelTime:        res.Metrics.ParallelTime,
			TaskPlanningTime:    res.Metrics.TaskPlanningTime,
			TaskAggregationTime: res.Metrics.TaskAggregationTime,
		})
	}
	return out, nil
}

// Fig6OptionPricing regenerates Figure 6 (1–13 × 300 MHz workers).
func Fig6OptionPricing() ([]ScalabilityPoint, error) { return Scalability(OptionPricing, 13) }

// Fig7RayTracing regenerates Figure 7 (1–5 × 800 MHz workers).
func Fig7RayTracing() ([]ScalabilityPoint, error) { return Scalability(RayTracing, 5) }

// Fig8Prefetch regenerates Figure 8 (1–5 × 800 MHz workers).
func Fig8Prefetch() ([]ScalabilityPoint, error) { return Scalability(Prefetching, 5) }

// ScalabilityTable renders points as the figure's series.
func ScalabilityTable(title string, pts []ScalabilityPoint) *metrics.Table {
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"workers", "max_worker_ms", "parallel_ms", "planning_ms", "aggregation_ms"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprint(p.Workers), metrics.Ms(p.MaxWorkerTime), metrics.Ms(p.ParallelTime),
			metrics.Ms(p.TaskPlanningTime), metrics.Ms(p.TaskAggregationTime))
	}
	return t
}
