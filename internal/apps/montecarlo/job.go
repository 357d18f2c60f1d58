package montecarlo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// JobName is the program bundle name for this application.
const JobName = "montecarlo"

// EntryPoint is the nodeconfig factory key.
const EntryPoint = "montecarlo.Worker"

// Task is one subtask entry: one estimator iteration over a batch of
// simulations (the paper's "each MC task consists of two iterations").
type Task struct {
	Job    string `space:"index"`
	ID     int    // 1-based: zero is the wildcard and never a real ID
	Kind   string // "high" or "low"
	Sims   int
	Seed   int64
	Params Params
	// Trace is the observability carrier: the master stamps each task
	// with its plan span and workers parent their spans to it. Zero in
	// templates (a wildcard) and whenever tracing is off.
	Trace obs.TraceContext
}

// Result is the entry a worker writes back.
type Result struct {
	Job      string `space:"index"`
	ID       int
	Kind     string
	Estimate float64
	StdErr   float64
	Sims     int
	Node     string
	// Trace carries the worker's execute span back to the master, which
	// parents the aggregate span to it.
	Trace obs.TraceContext
}

func init() {
	transport.RegisterType(Task{})
	transport.RegisterType(Result{})
	transport.RegisterType(bundleParams{})
	nodeconfig.RegisterFactory(EntryPoint, func(params []byte) (nodeconfig.Program, error) {
		cfg, err := nodeconfig.DecodeParams[bundleParams](params)
		if err != nil {
			return nil, fmt.Errorf("montecarlo: decode bundle params: %w", err)
		}
		return &program{work: cfg.WorkPerSubtask}, nil
	})
}

type bundleParams struct {
	WorkPerSubtask time.Duration
}

// JobConfig sizes the application.
type JobConfig struct {
	Params Params
	// TotalSims is the total simulation count (paper: 10 000).
	TotalSims int
	// SimsPerTask groups simulations (paper: 100 → 50 tasks, and the
	// high/low split doubles them to 100 subtasks).
	SimsPerTask int
	// Seed makes runs reproducible.
	Seed int64
	// WorkPerSubtask is the modeled reference-node CPU time of one
	// subtask (its real arithmetic also runs, but experiment timing uses
	// the model so results are host-independent).
	WorkPerSubtask time.Duration
	// PlanningCostPerTask is the master CPU time to create and serialize
	// one subtask entry.
	PlanningCostPerTask time.Duration
	// AggregationCostPerResult is the master CPU time to fold one result.
	AggregationCostPerResult time.Duration
	// ShardSpread keys each subtask entry individually ("montecarlo#<id>")
	// instead of under the shared job name, so a sharded space spreads the
	// bag of tasks across its shards; task and result templates then leave
	// the key zero and lookups scatter-gather. Harmless (but pointless) on
	// a single-server space.
	ShardSpread bool
}

// DefaultJobConfig reproduces the paper's §5.1.1 setup with costs
// calibrated in EXPERIMENTS.md.
func DefaultJobConfig() JobConfig {
	return JobConfig{
		Params:                   DefaultParams(),
		TotalSims:                10000,
		SimsPerTask:              100,
		Seed:                     2001,
		WorkPerSubtask:           600 * time.Millisecond,
		PlanningCostPerTask:      400 * time.Millisecond,
		AggregationCostPerResult: 20 * time.Millisecond,
	}
}

// Job is the option-pricing application as a framework job.
type Job struct {
	cfg JobConfig

	mu      sync.Mutex
	results []Result
}

// NewJob returns a job for cfg.
func NewJob(cfg JobConfig) *Job {
	if cfg.SimsPerTask <= 0 {
		cfg.SimsPerTask = 100
	}
	if cfg.TotalSims <= 0 {
		cfg.TotalSims = cfg.SimsPerTask
	}
	return &Job{cfg: cfg}
}

// Name implements core.Job.
func (j *Job) Name() string { return JobName }

// Plan implements core.Job: one high and one low subtask per simulation
// batch. Following the paper's accounting, a batch's two iterations
// together consume 2×SimsPerTask of the total budget: 10 000 simulations
// → 50 tasks of 100 simulations → 100 subtasks.
func (j *Job) Plan(emit func(tuplespace.Entry) error) error {
	id := 1
	for done := 0; done < j.cfg.TotalSims; done += 2 * j.cfg.SimsPerTask {
		sims := j.cfg.SimsPerTask
		if rest := j.cfg.TotalSims - done; rest < 2*sims {
			sims = (rest + 1) / 2
		}
		for _, kind := range [...]string{"high", "low"} {
			taskID := id
			id++
			key := JobName
			if j.cfg.ShardSpread {
				key = fmt.Sprintf("%s#%d", JobName, taskID)
			}
			if err := emit(Task{
				Job:    key,
				ID:     taskID,
				Kind:   kind,
				Sims:   sims,
				Seed:   j.cfg.Seed + int64(taskID)*7919,
				Params: j.cfg.Params,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// TaskTemplate implements core.Job. In ShardSpread mode the key stays
// zero — a wildcard — so the shard router scatters the lookup.
func (j *Job) TaskTemplate() tuplespace.Entry {
	if j.cfg.ShardSpread {
		return Task{}
	}
	return Task{Job: JobName}
}

// ResultTemplate implements core.Job.
func (j *Job) ResultTemplate() tuplespace.Entry {
	if j.cfg.ShardSpread {
		return Result{}
	}
	return Result{Job: JobName}
}

// Aggregate implements core.Job.
func (j *Job) Aggregate(e tuplespace.Entry) error {
	r, ok := e.(Result)
	if !ok {
		return fmt.Errorf("montecarlo: unexpected result entry %T", e)
	}
	j.mu.Lock()
	j.results = append(j.results, r)
	j.mu.Unlock()
	return nil
}

// Bundle implements core.Job.
func (j *Job) Bundle() nodeconfig.Bundle {
	return nodeconfig.Bundle{
		Name:       JobName,
		Version:    1,
		EntryPoint: EntryPoint,
		Params:     nodeconfig.EncodeParams(bundleParams{WorkPerSubtask: j.cfg.WorkPerSubtask}),
		Payload:    make([]byte, 96<<10), // the worker "jar"
	}
}

// PlanningCost implements core.Job.
func (j *Job) PlanningCost() time.Duration { return j.cfg.PlanningCostPerTask }

// AggregationCost implements core.Job.
func (j *Job) AggregationCost() time.Duration { return j.cfg.AggregationCostPerResult }

// Price is the aggregated outcome: the high and low estimators bracket
// the true option price.
type Price struct {
	High, HighErr float64
	Low, LowErr   float64
	Sims          int
	// Repeats lists, in aggregation order, the tasks whose result was
	// aggregated more than once.
	Repeats []int
}

// Midpoint returns the point estimate (the bracket's center).
func (p Price) Midpoint() float64 { return (p.High + p.Low) / 2 }

// Answer combines the collected results into the price bracket.
func (j *Job) Answer() (Price, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out Price
	var highN, lowN int
	var highVar, lowVar float64
	seen := make(map[int]bool, len(j.results))
	for _, r := range j.results {
		if seen[r.ID] {
			out.Repeats = append(out.Repeats, r.ID)
		}
		seen[r.ID] = true
		switch r.Kind {
		case "high":
			out.High += r.Estimate * float64(r.Sims)
			highVar += r.StdErr * r.StdErr * float64(r.Sims) * float64(r.Sims)
			highN += r.Sims
		case "low":
			out.Low += r.Estimate * float64(r.Sims)
			lowVar += r.StdErr * r.StdErr * float64(r.Sims) * float64(r.Sims)
			lowN += r.Sims
		default:
			return Price{}, fmt.Errorf("montecarlo: result with kind %q", r.Kind)
		}
	}
	if highN == 0 || lowN == 0 {
		return Price{}, fmt.Errorf("montecarlo: incomplete results (high %d, low %d sims)", highN, lowN)
	}
	out.High /= float64(highN)
	out.Low /= float64(lowN)
	out.HighErr = math.Sqrt(highVar) / float64(highN)
	out.LowErr = math.Sqrt(lowVar) / float64(lowN)
	out.Sims = highN + lowN
	return out, nil
}

// ResultCount returns how many results have been aggregated.
func (j *Job) ResultCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.results)
}

// program is the downloaded worker code.
type program struct {
	work time.Duration
}

// Name implements nodeconfig.Program.
func (p *program) Name() string { return JobName }

// Execute implements nodeconfig.Program: it runs the real estimator and
// charges the modeled CPU work on the node.
func (p *program) Execute(ctx nodeconfig.ExecContext, e tuplespace.Entry) (tuplespace.Entry, error) {
	t, ok := e.(Task)
	if !ok {
		return nil, fmt.Errorf("montecarlo: unexpected task entry %T", e)
	}
	var est Estimate
	var err error
	switch t.Kind {
	case "high":
		est, err = EstimateHigh(t.Params, t.Sims, t.Seed)
	case "low":
		est, err = EstimateLow(t.Params, t.Sims, t.Seed)
	default:
		return nil, fmt.Errorf("montecarlo: task with kind %q", t.Kind)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Machine != nil && p.work > 0 {
		// Scale modeled work by actual batch size relative to a full task.
		ctx.Machine.Compute(p.work*time.Duration(t.Sims)/100, 92)
	}
	// The result inherits the task's key, so in ShardSpread mode it lands
	// on (and is collected from) the task's shard.
	return Result{Job: t.Job, ID: t.ID, Kind: t.Kind,
		Estimate: est.Mean, StdErr: est.StdErr, Sims: est.Sims, Node: ctx.Node}, nil
}
