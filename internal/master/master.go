// Package master implements the paper's master module: it hosts the
// JavaSpaces service (and the code server), registers them with the
// lookup service, decomposes an application Job into task entries during
// the task-planning phase, writes them into the space, and collects and
// aggregates result entries during the result-aggregation phase. It
// measures the quantities the paper's figures report: task planning time,
// task aggregation time, parallel time, and per-task master overhead.
package master

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// Job is a parallel application in the framework's bag-of-tasks model.
// Implementations provide task decomposition (planning), result
// aggregation, and the worker program bundle that the remote node
// configuration engine ships to workers.
type Job interface {
	// Name identifies the job; it is also the program bundle name.
	Name() string
	// Plan decomposes the problem into task entries, calling emit for
	// each. The master charges PlanningCost per emitted task.
	Plan(emit func(task tuplespace.Entry) error) error
	// TaskTemplate matches this job's task entries.
	TaskTemplate() tuplespace.Entry
	// ResultTemplate matches this job's result entries.
	ResultTemplate() tuplespace.Entry
	// Aggregate folds one result into the final solution. The master
	// charges AggregationCost per result around this call.
	Aggregate(result tuplespace.Entry) error
	// Bundle is the worker program shipped by the code server.
	Bundle() nodeconfig.Bundle
	// PlanningCost is the master CPU work to create and serialize one
	// task entry (reference-node time).
	PlanningCost() time.Duration
	// AggregationCost is the master CPU work to fold one result
	// (reference-node time).
	AggregationCost() time.Duration
}

// Iterative is implemented by jobs with inter-iteration dependencies
// (such as the page-rank power iteration): after every result of a phase
// has been aggregated, the master calls NextPhase; if it returns true the
// job's Plan is invoked again for the next phase's tasks.
type Iterative interface {
	NextPhase() bool
}

// RunMetrics are the measurements of one job execution, matching §5.2.1:
// Max Worker Time is computed by the caller from worker stats; the rest
// are measured at the master.
type RunMetrics struct {
	Tasks  int
	Phases int
	// Shards is the number of space shards behind the master's handle
	// (1 for the classic single-server deployment).
	Shards              int
	TaskPlanningTime    time.Duration
	TaskAggregationTime time.Duration
	ParallelTime        time.Duration
	// MaxMasterOverhead is the maximum instantaneous time the master
	// spent planning one task or aggregating one result.
	MaxMasterOverhead time.Duration
}

// Config assembles a master.
type Config struct {
	Clock vclock.Clock
	// Space is the master's local handle on the JavaSpace it hosts.
	Space space.Space
	// Machine models the master node's CPU, on which planning and
	// aggregation costs are charged. Required.
	Machine *sysmon.Machine
	// ResultTimeout bounds the wait for each result during aggregation.
	// Default 5 minutes (a stuck cluster fails the run rather than
	// hanging it).
	ResultTimeout time.Duration
	// Obs, if set, enables causal tracing (a root "plan" span per task,
	// an "aggregate" span per result parented to the worker's execute
	// span) and per-stage latency histograms. Nil disables both at zero
	// cost.
	Obs *obs.Obs
}

// Master runs jobs.
type Master struct {
	cfg Config

	// Stage histograms, resolved once so the hot loops avoid the
	// registry's name lookup. All nil when Config.Obs is nil.
	histPlan       *metrics.Histogram
	histAggregate  *metrics.Histogram
	histTakeResult *metrics.Histogram

	// planned/collected feed the live gauges; taskTmpl holds the current
	// job's task template so PendingTasks can Count it; running gates the
	// space probe to the window where a job is actually executing.
	planned   atomic.Int64
	collected atomic.Int64
	taskTmpl  atomic.Value // tuplespace.Entry
	running   atomic.Bool
}

// ErrNoTasks is returned when a job plans zero tasks.
var ErrNoTasks = errors.New("master: job planned no tasks")

// New returns a Master.
func New(cfg Config) *Master {
	if cfg.ResultTimeout <= 0 {
		cfg.ResultTimeout = 5 * time.Minute
	}
	m := &Master{cfg: cfg}
	if cfg.Obs != nil {
		m.histPlan = cfg.Obs.Hist(metrics.HistMasterPlan)
		m.histAggregate = cfg.Obs.Hist(metrics.HistMasterAggregate)
		m.histTakeResult = cfg.Obs.Hist(metrics.HistMasterTakeResult)
	}
	return m
}

// TasksPlanned returns the total number of tasks written by this master.
func (m *Master) TasksPlanned() int64 { return m.planned.Load() }

// ResultsCollected returns the total number of results aggregated.
func (m *Master) ResultsCollected() int64 { return m.collected.Load() }

// PendingTasks counts task entries currently sitting in the space for
// the active job. It reports zero between jobs without touching the
// space: gauges are polled from scrape goroutines outside the framework's
// scheduling domain, and an idle deployment must answer from local state
// alone rather than issue space operations nothing is left to serve.
func (m *Master) PendingTasks() int64 {
	if !m.running.Load() {
		return 0
	}
	tmpl, _ := m.taskTmpl.Load().(tuplespace.Entry)
	if tmpl == nil {
		return 0
	}
	n, err := m.cfg.Space.Count(tmpl)
	if err != nil {
		return 0
	}
	return int64(n)
}

// InFlight estimates tasks taken by workers but not yet returned:
// planned − collected − still-pending, clamped at zero (the three reads
// are not atomic with respect to one another).
func (m *Master) InFlight() int64 {
	if n := m.planned.Load() - m.collected.Load() - m.PendingTasks(); n > 0 {
		return n
	}
	return 0
}

// charge burns d of master CPU on the master machine.
func (m *Master) charge(d time.Duration) {
	if d > 0 {
		m.cfg.Machine.Compute(d, 90)
	}
}

// RunJob executes the three-phase protocol for job and returns its
// metrics. Workers must already be running (or started concurrently); the
// task-planning and compute phases overlap naturally, since workers begin
// consuming tasks as soon as the first write lands. Jobs implementing
// Iterative get additional plan/collect rounds until NextPhase reports
// false.
func (m *Master) RunJob(job Job) (RunMetrics, error) {
	var rm RunMetrics
	m.running.Store(true)
	defer m.running.Store(false)
	rm.Shards = 1
	if ns, ok := m.cfg.Space.(interface{ NumShards() int }); ok {
		rm.Shards = ns.NumShards()
	}
	total := metrics.StartStopwatch(m.cfg.Clock)
	for {
		rm.Phases++
		n, err := m.planPhase(job, &rm)
		if err != nil {
			return rm, err
		}
		if n == 0 {
			return rm, ErrNoTasks
		}
		if err := m.collectPhase(job, n, &rm); err != nil {
			return rm, err
		}
		it, ok := job.(Iterative)
		if !ok || !it.NextPhase() {
			break
		}
	}
	rm.ParallelTime = total.Elapsed()
	return rm, nil
}

// planPhase runs one task-planning round and returns how many tasks it
// emitted. Each task gets a root "plan" span whose context rides inside
// the task entry, so every downstream span (take, execute, aggregate)
// joins the same trace.
func (m *Master) planPhase(job Job, rm *RunMetrics) (int, error) {
	m.taskTmpl.Store(job.TaskTemplate())
	planning := metrics.StartStopwatch(m.cfg.Clock)
	planCost := job.PlanningCost()
	tracer := m.cfg.Obs.T()
	n := 0
	err := job.Plan(func(task tuplespace.Entry) error {
		one := metrics.StartStopwatch(m.cfg.Clock)
		span := tracer.StartRoot(m.cfg.Clock, "plan", "master")
		if span != nil {
			task = obs.Inject(task, span.Context())
		}
		m.charge(planCost)
		if _, err := m.cfg.Space.Write(task, nil, tuplespace.Forever); err != nil {
			span.End()
			return fmt.Errorf("master: write task: %w", err)
		}
		span.End()
		n++
		m.planned.Add(1)
		d := one.Elapsed()
		m.histPlan.Record(d)
		if d > rm.MaxMasterOverhead {
			rm.MaxMasterOverhead = d
		}
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("master: planning: %w", err)
	}
	rm.Tasks += n
	rm.TaskPlanningTime += planning.Elapsed()
	return n, nil
}

// collectPhase takes and aggregates n results. It trusts the space to
// hold each result once: a worker's result write is tokened like every
// mutation, so a redelivered one is answered, not stored twice (DESIGN §7).
func (m *Master) collectPhase(job Job, n int, rm *RunMetrics) error {
	aggregation := metrics.StartStopwatch(m.cfg.Clock)
	aggCost := job.AggregationCost()
	tmpl := job.ResultTemplate()
	for collected := 0; collected < n; collected++ {
		res, err := m.takeResult(tmpl)
		if err != nil {
			return fmt.Errorf("master: collecting result %d/%d: %w", collected+1, n, err)
		}
		one := metrics.StartStopwatch(m.cfg.Clock)
		span := m.cfg.Obs.T().StartChild(m.cfg.Clock, obs.Extract(res), "aggregate", "master")
		m.charge(aggCost)
		if err := job.Aggregate(res); err != nil {
			span.End()
			return fmt.Errorf("master: aggregate: %w", err)
		}
		span.End()
		d := one.Elapsed()
		m.histAggregate.Record(d)
		if d > rm.MaxMasterOverhead {
			rm.MaxMasterOverhead = d
		}
		m.collected.Add(1)
	}
	rm.TaskAggregationTime += aggregation.Elapsed()
	return nil
}

// takeResult waits up to ResultTimeout for one result. A task held by a
// crashed worker needs nothing from the master: its shard aborts the
// worker's transaction at the lease deadline and another worker takes it.
func (m *Master) takeResult(tmpl tuplespace.Entry) (tuplespace.Entry, error) {
	start := m.cfg.Clock.Now()
	res, err := m.cfg.Space.Take(tmpl, nil, m.cfg.ResultTimeout)
	if err == nil {
		m.histTakeResult.Record(m.cfg.Clock.Since(start))
	}
	return res, err
}
