package master

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/nodeconfig"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

type fakeTask struct {
	Job   string
	ID    int
	Round int
}

type fakeResult struct {
	Job   string
	ID    int
	Round int
}

// fakeJob plans n tasks per phase for `phases` phases.
type fakeJob struct {
	n        int
	phases   int
	round    int
	planCost time.Duration
	aggCost  time.Duration
	got      []fakeResult
	planErr  error
	aggErr   error
}

func (j *fakeJob) Name() string { return "fake" }
func (j *fakeJob) Plan(emit func(tuplespace.Entry) error) error {
	if j.planErr != nil {
		return j.planErr
	}
	for i := 1; i <= j.n; i++ {
		if err := emit(fakeTask{Job: "fake", ID: i, Round: j.round + 1}); err != nil {
			return err
		}
	}
	return nil
}
func (j *fakeJob) TaskTemplate() tuplespace.Entry { return fakeTask{Job: "fake"} }
func (j *fakeJob) ResultTemplate() tuplespace.Entry {
	return fakeResult{Job: "fake", Round: j.round + 1}
}
func (j *fakeJob) Aggregate(e tuplespace.Entry) error {
	if j.aggErr != nil {
		return j.aggErr
	}
	r, ok := e.(fakeResult)
	if !ok {
		return fmt.Errorf("bad result %T", e)
	}
	j.got = append(j.got, r)
	return nil
}
func (j *fakeJob) Bundle() nodeconfig.Bundle      { return nodeconfig.Bundle{Name: "fake"} }
func (j *fakeJob) PlanningCost() time.Duration    { return j.planCost }
func (j *fakeJob) AggregationCost() time.Duration { return j.aggCost }

type iterativeJob struct{ fakeJob }

func (j *iterativeJob) NextPhase() bool {
	j.round++
	return j.round < j.phases
}

// echoWorker answers every task in the space with a result.
func echoWorker(clk *vclock.Virtual, sp space.Space, quit *atomic.Bool) {
	for !quit.Load() {
		e, err := sp.Take(fakeTask{Job: "fake"}, nil, 50*time.Millisecond)
		if err != nil {
			continue
		}
		t := e.(fakeTask)
		clk.Sleep(10 * time.Millisecond)
		if _, err := sp.Write(fakeResult{Job: "fake", ID: t.ID, Round: t.Round}, nil, tuplespace.Forever); err != nil {
			return
		}
	}
}

func runWithWorker(t *testing.T, job Job, planCostless bool) (RunMetrics, *vclock.Virtual, error) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	local := space.NewLocal(clk)
	m := New(Config{Clock: clk, Space: local, Machine: sysmon.NewMachine(clk, "master", 1), ResultTimeout: 30 * time.Second})
	var rm RunMetrics
	var err error
	var quit atomic.Bool
	clk.Run(func() {
		clk.Go(func() { echoWorker(clk, local, &quit) })
		rm, err = m.RunJob(job)
		quit.Store(true)
	})
	_ = planCostless
	return rm, clk, err
}

func TestRunJobSinglePhase(t *testing.T) {
	job := &fakeJob{n: 5, planCost: 20 * time.Millisecond, aggCost: 5 * time.Millisecond}
	rm, _, err := runWithWorker(t, job, false)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Tasks != 5 || rm.Phases != 1 {
		t.Fatalf("metrics %+v", rm)
	}
	if len(job.got) != 5 {
		t.Fatalf("aggregated %d results", len(job.got))
	}
	if rm.TaskPlanningTime < 100*time.Millisecond {
		t.Fatalf("planning time %v, want >= 5×20ms", rm.TaskPlanningTime)
	}
	if rm.MaxMasterOverhead < 20*time.Millisecond {
		t.Fatalf("max master overhead %v", rm.MaxMasterOverhead)
	}
	if rm.ParallelTime < rm.TaskPlanningTime+rm.TaskAggregationTime {
		t.Fatalf("parallel %v < planning %v + aggregation %v",
			rm.ParallelTime, rm.TaskPlanningTime, rm.TaskAggregationTime)
	}
}

func TestRunJobIterativePhases(t *testing.T) {
	job := &iterativeJob{fakeJob{n: 3, phases: 4}}
	rm, _, err := runWithWorker(t, job, true)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Phases != 4 || rm.Tasks != 12 {
		t.Fatalf("metrics %+v", rm)
	}
	if len(job.got) != 12 {
		t.Fatalf("aggregated %d results", len(job.got))
	}
	// Results were collected per round: round i results only during
	// phase i (template matched on Round).
	for _, r := range job.got {
		if r.Round < 1 || r.Round > 4 {
			t.Fatalf("result round %d", r.Round)
		}
	}
}

func TestRunJobNoTasks(t *testing.T) {
	job := &fakeJob{n: 0}
	_, _, err := runWithWorker(t, job, true)
	if !errors.Is(err, ErrNoTasks) {
		t.Fatalf("err = %v, want ErrNoTasks", err)
	}
}

func TestRunJobPlanError(t *testing.T) {
	job := &fakeJob{n: 2, planErr: errors.New("plan boom")}
	_, _, err := runWithWorker(t, job, true)
	if err == nil || !errors.Is(err, job.planErr) && err.Error() == "" {
		t.Fatalf("err = %v", err)
	}
}

func TestRunJobAggregateError(t *testing.T) {
	job := &fakeJob{n: 2, aggErr: errors.New("agg boom")}
	_, _, err := runWithWorker(t, job, true)
	if err == nil {
		t.Fatal("aggregate error swallowed")
	}
}

func TestRunJobResultTimeout(t *testing.T) {
	// No worker: collection must fail after ResultTimeout, not hang.
	clk := vclock.NewVirtual(time.Unix(0, 0))
	local := space.NewLocal(clk)
	m := New(Config{Clock: clk, Space: local, Machine: sysmon.NewMachine(clk, "master", 1), ResultTimeout: 2 * time.Second})
	job := &fakeJob{n: 1}
	var err error
	clk.Run(func() { _, err = m.RunJob(job) })
	if err == nil || !errors.Is(err, tuplespace.ErrTimeout) {
		t.Fatalf("err = %v, want wrapped ErrTimeout", err)
	}
}
