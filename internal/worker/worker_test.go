package worker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/rulebase"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// testTask / testResult are the entries the test program consumes.
type testTask struct {
	Job  string
	ID   int  // 1-based
	Boom bool // ask the program to fail
}

type testResult struct {
	Job  string
	ID   int
	Node string
}

type testProgram struct {
	mu       sync.Mutex
	executed []int
}

func (p *testProgram) Name() string { return "testjob" }

func (p *testProgram) Execute(ctx nodeconfig.ExecContext, e tuplespace.Entry) (tuplespace.Entry, error) {
	t, ok := e.(testTask)
	if !ok {
		return nil, fmt.Errorf("bad entry %T", e)
	}
	if t.Boom {
		return nil, errors.New("boom")
	}
	if ctx.Machine != nil {
		ctx.Machine.Compute(50*time.Millisecond, 95)
	}
	p.mu.Lock()
	p.executed = append(p.executed, t.ID)
	p.mu.Unlock()
	return testResult{Job: "testjob", ID: t.ID, Node: ctx.Node}, nil
}

func init() {
	transport.RegisterType(testTask{})
	transport.RegisterType(testResult{})
	nodeconfig.RegisterFactory("test.Worker", func([]byte) (nodeconfig.Program, error) {
		return &testProgram{}, nil
	})
}

// rig wires a virtual-clock worker to a local space through an in-proc
// network, with a code server publishing the test program.
type rig struct {
	clk     *vclock.Virtual
	local   *space.Local
	machine *sysmon.Machine
	w       *Worker
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := vclock.NewVirtual(time.Date(2001, 10, 8, 0, 0, 0, 0, time.UTC))
	local := space.NewLocal(clk)
	srv := transport.NewServer()
	space.NewService(local, srv)
	cs := nodeconfig.NewCodeServer()
	cs.Publish(nodeconfig.Bundle{Name: "testjob", EntryPoint: "test.Worker", Payload: make([]byte, 1024)})
	cs.Bind(srv)
	net := transport.NewNetwork(clk, transport.Loopback())
	net.Listen("master", srv)

	machine := sysmon.NewMachine(clk, "n1", 1)
	engine := nodeconfig.NewEngine(nodeconfig.ExecContext{Clock: clk, Machine: machine, Node: "n1"}, net.Dial("master"))
	w := New(Config{
		Node:         "n1",
		Clock:        clk,
		Machine:      machine,
		Space:        space.NewProxy(net.Dial("master")),
		Engine:       engine,
		Program:      "testjob",
		TaskTemplate: testTask{Job: "testjob"},
		TxnTTL:       time.Minute,
	})
	return &rig{clk: clk, local: local, machine: machine, w: w}
}

func (r *rig) writeTasks(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.local.Write(testTask{Job: "testjob", ID: i + 1}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *rig) countResults(t *testing.T) int {
	t.Helper()
	n, err := r.local.Count(testResult{Job: "testjob"})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWorkerProcessesAllTasks(t *testing.T) {
	r := newRig(t)
	r.writeTasks(t, 8)
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.w.AutoStart()
		r.clk.Sleep(5 * time.Second)
		r.w.Shutdown()
	})
	if got := r.countResults(t); got != 8 {
		t.Fatalf("results = %d, want 8", got)
	}
	st := r.w.Stats()
	if st.TasksDone != 8 || st.TaskFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WorkerTime() <= 0 {
		t.Fatal("worker time not measured")
	}
	if st.Loads != 1 {
		t.Fatalf("program loaded %d times, want 1", st.Loads)
	}
}

func TestWorkerStartsOnlyOnSignal(t *testing.T) {
	r := newRig(t)
	r.writeTasks(t, 2)
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.clk.Sleep(2 * time.Second)
		if got := r.countResults(t); got != 0 {
			t.Errorf("unsignalled worker produced %d results", got)
		}
		if st := r.w.State(); st != rulebase.StateStopped {
			t.Errorf("state = %v, want Stopped", st)
		}
		if _, err := r.w.Signal(rulebase.SignalStart, r.clk.Now()); err != nil {
			t.Error(err)
		}
		r.clk.Sleep(3 * time.Second)
		r.w.Shutdown()
	})
	if got := r.countResults(t); got != 2 {
		t.Fatalf("results = %d, want 2", got)
	}
}

func TestWorkerPauseAndResume(t *testing.T) {
	r := newRig(t)
	r.writeTasks(t, 20)
	var midCount int
	var pausedState rulebase.State
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.w.AutoStart()
		r.clk.Sleep(500 * time.Millisecond)
		if _, err := r.w.Signal(rulebase.SignalPause, r.clk.Now()); err != nil {
			t.Error(err)
		}
		r.clk.Sleep(2 * time.Second)
		pausedState = r.w.State()
		midCount = r.countResults(t)
		// While paused, no progress.
		r.clk.Sleep(2 * time.Second)
		if got := r.countResults(t); got != midCount {
			t.Errorf("paused worker progressed: %d -> %d", midCount, got)
		}
		if _, err := r.w.Signal(rulebase.SignalResume, r.clk.Now()); err != nil {
			t.Error(err)
		}
		r.clk.Sleep(5 * time.Second)
		r.w.Shutdown()
	})
	if pausedState != rulebase.StatePaused {
		t.Fatalf("state during pause = %v", pausedState)
	}
	if got := r.countResults(t); got != 20 {
		t.Fatalf("results = %d, want 20", got)
	}
	// Resume must not reload the program.
	if st := r.w.Stats(); st.Loads != 1 {
		t.Fatalf("loads = %d, want 1 (pause/resume keeps program resident)", st.Loads)
	}
}

func TestWorkerStopUnloadsAndRestartReloads(t *testing.T) {
	r := newRig(t)
	r.writeTasks(t, 30)
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.w.AutoStart()
		r.clk.Sleep(500 * time.Millisecond)
		if _, err := r.w.Signal(rulebase.SignalStop, r.clk.Now()); err != nil {
			t.Error(err)
		}
		r.clk.Sleep(time.Second)
		if st := r.w.State(); st != rulebase.StateStopped {
			t.Errorf("state after stop = %v", st)
		}
		if _, err := r.w.Signal(rulebase.SignalRestart, r.clk.Now()); err != nil {
			t.Error(err)
		}
		r.clk.Sleep(8 * time.Second)
		r.w.Shutdown()
	})
	if st := r.w.Stats(); st.Loads != 2 {
		t.Fatalf("loads = %d, want 2 (stop tears the program down)", st.Loads)
	}
	if got := r.countResults(t); got != 30 {
		t.Fatalf("results = %d, want 30", got)
	}
}

// TestWorkerNeverLosesTasks is the §4.3 guarantee: whatever the signal
// interleaving, every task is eventually answered exactly once.
func TestWorkerNeverLosesTasks(t *testing.T) {
	r := newRig(t)
	const n = 15
	r.writeTasks(t, n)
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.w.AutoStart()
		// Aggressive signal storm: pause/resume/stop/restart cycles.
		sigs := []rulebase.Signal{
			rulebase.SignalPause, rulebase.SignalResume,
			rulebase.SignalStop, rulebase.SignalRestart,
			rulebase.SignalPause, rulebase.SignalStop,
			rulebase.SignalRestart, rulebase.SignalResume,
		}
		for _, s := range sigs {
			r.clk.Sleep(300 * time.Millisecond)
			_, _ = r.w.Signal(s, r.clk.Now()) // some may be invalid; ignored
		}
		r.clk.Sleep(15 * time.Second)
		r.w.Shutdown()
	})
	if got := r.countResults(t); got != n {
		t.Fatalf("results = %d, want %d", got, n)
	}
	if live, _ := r.local.Count(testTask{Job: "testjob"}); live != 0 {
		t.Fatalf("%d tasks left in space", live)
	}
}

func TestWorkerSignalRejectsInvalidTransitions(t *testing.T) {
	r := newRig(t)
	r.clk.Run(func() {
		// Worker is Stopped; Pause and Resume are invalid.
		if _, err := r.w.Signal(rulebase.SignalPause, r.clk.Now()); !errors.Is(err, ErrBadSignal) {
			t.Errorf("pause in stopped: %v", err)
		}
		if _, err := r.w.Signal(rulebase.SignalResume, r.clk.Now()); !errors.Is(err, ErrBadSignal) {
			t.Errorf("resume in stopped: %v", err)
		}
	})
}

func TestWorkerSignalRecordLatencies(t *testing.T) {
	r := newRig(t)
	r.clk.Run(func() {
		sent := r.clk.Now()
		r.clk.Sleep(5 * time.Millisecond) // simulated transport delay
		rec, err := r.w.Signal(rulebase.SignalStart, sent)
		if err != nil {
			t.Fatal(err)
		}
		if rec.ClientTime() != 5*time.Millisecond {
			t.Errorf("client time = %v, want 5ms", rec.ClientTime())
		}
		if rec.WorkerTime() <= 0 {
			t.Errorf("worker time = %v, want > 0", rec.WorkerTime())
		}
	})
	if logs := r.w.Signals(); len(logs) != 1 || logs[0].Signal != rulebase.SignalStart {
		t.Fatalf("signal log = %+v", logs)
	}
}

func TestWorkerFailingTaskReappears(t *testing.T) {
	r := newRig(t)
	if _, err := r.local.Write(testTask{Job: "testjob", ID: 1, Boom: true}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.w.AutoStart()
		r.clk.Sleep(2 * time.Second)
		r.w.Shutdown()
	})
	st := r.w.Stats()
	if st.TaskFailures == 0 {
		t.Fatal("failure not recorded")
	}
	// The transactional take aborted, so the poisoned task is back.
	if live, _ := r.local.Count(testTask{Job: "testjob"}); live != 1 {
		t.Fatalf("poisoned task count = %d, want 1 (reappeared)", live)
	}
}

// TestWorkerCollectorReceivesTaskTimings: every completed task lands one
// take-to-commit sample in Obs's worker:task histogram.
func TestWorkerCollectorReceivesTaskTimings(t *testing.T) {
	r := newRig(t)
	o := obs.New(1)
	cfg := r.w.cfg
	cfg.Obs = o
	r.w = New(cfg)
	r.writeTasks(t, 5)
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.w.AutoStart()
		r.clk.Sleep(5 * time.Second)
		r.w.Shutdown()
	})
	h := o.Hist(metrics.HistWorkerTask)
	if got := h.Count(); got != 5 {
		t.Fatalf("%s has %d samples, want 5", metrics.HistWorkerTask, got)
	}
	if h.Max() < 50*time.Millisecond {
		t.Fatalf("max task time %v, want >= compute time", h.Max())
	}
}

func TestWorkerRunTwicePanics(t *testing.T) {
	r := newRig(t)
	r.clk.Run(func() {
		r.clk.Go(r.w.Run)
		r.clk.Sleep(100 * time.Millisecond)
		defer func() {
			if recover() == nil {
				t.Error("second Run did not panic")
			}
			r.w.Shutdown()
		}()
		r.w.Run()
	})
}

func TestWorkerBindSignalEndpoint(t *testing.T) {
	r := newRig(t)
	srv := transport.NewServer()
	r.w.Bind(srv)
	net := transport.NewNetwork(r.clk, transport.Loopback())
	net.Listen("n1", srv)
	r.clk.Run(func() {
		c := net.Dial("n1")
		res, err := c.Call("worker.Signal", &SignalArgs{Signal: rulebase.SignalStart, SentAt: r.clk.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if res.(*SignalReply).Record.Signal != rulebase.SignalStart {
			t.Fatalf("reply = %+v", res)
		}
		st, err := c.Call("worker.State", 0)
		if err != nil {
			t.Fatal(err)
		}
		// Run loop not started: state is still Stopped even though the
		// target is Running.
		if got := st.(*StateReply).State; got != rulebase.StateStopped {
			t.Fatalf("state = %v", got)
		}
	})
}
