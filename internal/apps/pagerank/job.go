package pagerank

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
)

// JobName is the program bundle name for this application.
const JobName = "pagerank"

// EntryPoint is the nodeconfig factory key.
const EntryPoint = "pagerank.Worker"

// Task is one strip task of one power iteration: rows [R0,R1) of the
// matrix–vector product against the current rank vector X.
type Task struct {
	Job    string `space:"index"`
	ID     int    // 1-based
	Round  int    // 1-based
	R0, R1 int
	X      []float64
	// Trace is the observability carrier (zero = untraced/wildcard).
	Trace obs.TraceContext
}

// Result carries a computed strip of the next rank vector.
type Result struct {
	Job    string `space:"index"`
	ID     int
	Round  int
	R0, R1 int
	Y      []float64
	Node   string
	// Trace carries the worker's execute span back to the master.
	Trace obs.TraceContext
}

// bundleParams ship the link graph, not the matrix built from it: the
// graph is a few bytes a link, the dense matrix eight a cell.
type bundleParams struct {
	Graph        Graph
	Damping      float64
	WorkPerStrip time.Duration
	StripRows    int
}

func init() {
	transport.RegisterType(Task{})
	transport.RegisterType(Result{})
	transport.RegisterType(bundleParams{})
	nodeconfig.RegisterFactory(EntryPoint, func(params []byte) (nodeconfig.Program, error) {
		cfg, err := nodeconfig.DecodeParams[bundleParams](params)
		if err != nil {
			return nil, fmt.Errorf("pagerank: decode bundle params: %w", err)
		}
		return &program{cfg: cfg, matrix: cfg.Graph.Stochastic()}, nil
	})
}

// JobConfig sizes the application.
type JobConfig struct {
	Graph Graph
	// StripRows is the strip height (paper: strips of 20 on a 500×500
	// matrix → 25 tasks).
	StripRows int
	// Iterations is the number of power iterations (phases).
	Iterations int
	// Damping is the PageRank damping factor.
	Damping float64
	// WorkPerStrip is the modeled reference-node CPU time per strip task.
	WorkPerStrip time.Duration
	// PlanningCostPerTask / AggregationCostPerResult are master costs.
	PlanningCostPerTask      time.Duration
	AggregationCostPerResult time.Duration
}

// DefaultJobConfig reproduces the paper's §5.1.3 setup: 500×500 matrix
// and a 500×1 vector, strips of 20 → 25 tasks. The aggregation cost
// (assembling the resultant matrix) dominating the run is the paper's
// stated behaviour for this application.
func DefaultJobConfig() JobConfig {
	return JobConfig{
		Graph:                    SyntheticCluster(500, 42),
		StripRows:                20,
		Iterations:               10,
		Damping:                  0.85,
		WorkPerStrip:             400 * time.Millisecond,
		PlanningCostPerTask:      10 * time.Millisecond,
		AggregationCostPerResult: 120 * time.Millisecond,
	}
}

// Job is the pre-fetching application as a framework job. It implements
// master.Iterative: each power iteration is one plan/collect phase, with
// the inter-iteration dependency (the new rank vector) resolved at the
// master.
type Job struct {
	cfg    JobConfig
	matrix [][]float64

	mu    sync.Mutex
	round int
	x     []float64
	next  []float64
	got   int
}

// NewJob returns a job for cfg.
func NewJob(cfg JobConfig) *Job {
	if cfg.StripRows <= 0 {
		cfg.StripRows = 20
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Damping <= 0 || cfg.Damping >= 1 {
		cfg.Damping = 0.85
	}
	n := cfg.Graph.N
	x := make([]float64, n)
	for i := range x {
		x[i] = 1.0 / float64(n)
	}
	return &Job{
		cfg:    cfg,
		round:  1,
		matrix: cfg.Graph.Stochastic(),
		x:      x,
		next:   make([]float64, n),
	}
}

// Name implements core.Job.
func (j *Job) Name() string { return JobName }

// Plan implements core.Job: strip tasks for the current iteration.
func (j *Job) Plan(emit func(tuplespace.Entry) error) error {
	j.mu.Lock()
	round := j.round
	x := append([]float64(nil), j.x...)
	j.got = 0
	j.mu.Unlock()
	n := j.cfg.Graph.N
	id := 1
	for r := 0; r < n; r += j.cfg.StripRows {
		r1 := r + j.cfg.StripRows
		if r1 > n {
			r1 = n
		}
		taskID := id
		id++
		if err := emit(Task{Job: JobName, ID: taskID, Round: round, R0: r, R1: r1, X: x}); err != nil {
			return err
		}
	}
	return nil
}

// TaskTemplate implements core.Job. Workers match any round, so the same
// template survives across phases.
func (j *Job) TaskTemplate() tuplespace.Entry { return Task{Job: JobName} }

// ResultTemplate implements core.Job: only the current round's results.
func (j *Job) ResultTemplate() tuplespace.Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	round := j.round
	return Result{Job: JobName, Round: round}
}

// Aggregate implements core.Job: place the strip into the next vector.
func (j *Job) Aggregate(e tuplespace.Entry) error {
	r, ok := e.(Result)
	if !ok {
		return fmt.Errorf("pagerank: unexpected result entry %T", e)
	}
	if r.R0 < 0 || r.R1 > j.cfg.Graph.N || r.R0 >= r.R1 || len(r.Y) != r.R1-r.R0 {
		return fmt.Errorf("pagerank: bad result strip [%d,%d) len %d", r.R0, r.R1, len(r.Y))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	copy(j.next[r.R0:r.R1], r.Y)
	j.got++
	return nil
}

// NextPhase implements master.Iterative: adopt the new vector and decide
// whether another power iteration is needed.
func (j *Job) NextPhase() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.x, j.next = j.next, j.x
	j.round++
	return j.round <= j.cfg.Iterations
}

// Bundle implements core.Job: the link graph ships once in the bundle, and
// each worker builds the matrix from it; tasks carry only the (small)
// current vector, keeping master–worker traffic low, which is why the
// paper calls this application's planning overhead low.
func (j *Job) Bundle() nodeconfig.Bundle {
	return nodeconfig.Bundle{
		Name:       JobName,
		Version:    1,
		EntryPoint: EntryPoint,
		Params: nodeconfig.EncodeParams(bundleParams{
			Graph:        j.cfg.Graph,
			Damping:      j.cfg.Damping,
			WorkPerStrip: j.cfg.WorkPerStrip,
			StripRows:    j.cfg.StripRows,
		}),
		Payload: make([]byte, 64<<10),
	}
}

// PlanningCost implements core.Job.
func (j *Job) PlanningCost() time.Duration { return j.cfg.PlanningCostPerTask }

// AggregationCost implements core.Job.
func (j *Job) AggregationCost() time.Duration { return j.cfg.AggregationCostPerResult }

// Ranks returns the current rank vector.
func (j *Job) Ranks() []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]float64(nil), j.x...)
}

// program is the downloaded worker code.
type program struct {
	cfg    bundleParams
	matrix [][]float64 // cfg.Graph.Stochastic()
}

// Name implements nodeconfig.Program.
func (p *program) Name() string { return JobName }

// Execute implements nodeconfig.Program.
func (p *program) Execute(ctx nodeconfig.ExecContext, e tuplespace.Entry) (tuplespace.Entry, error) {
	t, ok := e.(Task)
	if !ok {
		return nil, fmt.Errorf("pagerank: unexpected task entry %T", e)
	}
	y, err := MultiplyRows(p.matrix, t.X, t.R0, t.R1, p.cfg.Damping)
	if err != nil {
		return nil, err
	}
	if ctx.Machine != nil && p.cfg.WorkPerStrip > 0 {
		rows := t.R1 - t.R0
		work := time.Duration(int64(p.cfg.WorkPerStrip) * int64(rows) / int64(maxInt(1, p.cfg.StripRows)))
		ctx.Machine.Compute(work, 85)
	}
	return Result{Job: JobName, ID: t.ID, Round: t.Round, R0: t.R0, R1: t.R1, Y: y, Node: ctx.Node}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
