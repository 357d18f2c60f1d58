// Package worker implements the paper's worker module: a thin runtime
// that is configured remotely (worker code is downloaded at runtime
// through the nodeconfig engine), pulls tasks from the JavaSpace, executes
// them, writes results back, and obeys the Start/Stop/Pause/Resume signals
// of the rule-base protocol. Signals never preempt a task: they are
// interpreted immediately but take effect at the next task boundary, so no
// task is ever lost (§4.3).
package worker

import (
	"errors"
	"fmt"
	"sync"
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

// Config assembles a worker's dependencies.
type Config struct {
	// Node names this worker (unique in the cluster).
	Node string
	// Clock is the node's time source.
	Clock vclock.Clock
	// Machine models the node's CPU; required.
	Machine *sysmon.Machine
	// Space is the (usually remote) JavaSpace holding tasks and results.
	Space space.Space
	// Engine downloads worker programs from the master's code server.
	Engine *nodeconfig.Engine
	// Program is the name of the program bundle to load on Start.
	Program string
	// TaskTemplate matches the task entries this worker consumes.
	TaskTemplate tuplespace.Entry
	// TxnTTL leases each per-task transaction; if the worker dies
	// mid-task the lease expires and the task reappears. Default 2 min.
	TxnTTL time.Duration
	// Obs, if set, enables causal tracing ("take" and "execute" spans
	// parented to the task's plan span) and the worker task-latency
	// histogram. Nil disables both at zero cost.
	Obs *obs.Obs
}

// SignalRecord logs one received control signal with the protocol's two
// measured latencies: client time (send → receipt at the node's signal
// endpoint) and worker time (receipt → interpreted and acted on).
type SignalRecord struct {
	Signal     rulebase.Signal
	SentAt     time.Time
	ReceivedAt time.Time
	AppliedAt  time.Time
}

// ClientTime is the transport latency of the signal.
func (r SignalRecord) ClientTime() time.Duration { return r.ReceivedAt.Sub(r.SentAt) }

// WorkerTime is the handling latency at the worker.
func (r SignalRecord) WorkerTime() time.Duration { return r.AppliedAt.Sub(r.ReceivedAt) }

// Stats is a snapshot of worker progress.
type Stats struct {
	State        rulebase.State
	TasksDone    int
	TaskFailures int
	// SpaceErrors counts hard space failures (not timeouts) seen by the
	// task loop — dropped RPCs, the worker's own crash windows, partitions.
	// Chaos tests read it to confirm workers actually felt the injected
	// faults they recovered from.
	SpaceErrors  int
	FirstTaskAt  time.Time
	LastResultAt time.Time
	Loads        int // full program loads performed (Start/Restart pays these)
}

// WorkerTime returns the paper's per-worker computation time: first task
// access to final result write (zero if no task was completed).
func (s Stats) WorkerTime() time.Duration {
	if s.FirstTaskAt.IsZero() || s.LastResultAt.IsZero() {
		return 0
	}
	return s.LastResultAt.Sub(s.FirstTaskAt)
}

// signal-handling CPU costs (reference-node time burned in the signal
// endpoint — interpreting the signal and switching the runtime process).
var signalHandlingCost = map[rulebase.Signal]time.Duration{
	rulebase.SignalStart:   8 * time.Millisecond, // spawn runtime process
	rulebase.SignalRestart: 8 * time.Millisecond,
	rulebase.SignalResume:  3 * time.Millisecond, // unlock interrupted thread
	rulebase.SignalPause:   4 * time.Millisecond, // interrupt + lock thread
	rulebase.SignalStop:    6 * time.Millisecond, // interrupt + cleanup
}

// pollTimeout bounds each blocking Take so pending signals and shutdown
// are honoured on an idle space; parkPoll bounds each wait while Paused or
// Stopped.
const (
	pollTimeout = 250 * time.Millisecond
	parkPoll    = 500 * time.Millisecond
)

// ErrBadSignal is returned for a signal invalid in the worker's state.
var ErrBadSignal = errors.New("worker: signal not valid in current state")

// Worker is one worker module instance.
type Worker struct {
	cfg Config

	// histTask is the worker task-latency histogram, resolved once so the
	// task loop avoids the registry lookup; nil when Config.Obs is nil.
	histTask *metrics.Histogram

	mu        sync.Mutex
	target    rulebase.State // state requested by the rule-base protocol
	state     rulebase.State // state the run loop has actually entered
	ranBefore bool
	program   nodeconfig.Program
	parker    vclock.Waiter
	quit      bool
	running   bool
	stats     Stats
	signals   []SignalRecord
}

// New returns a worker in the Stopped state; it does nothing until it
// receives a Start signal (or AutoStart is invoked) and Run is called.
func New(cfg Config) *Worker {
	if cfg.TxnTTL <= 0 {
		cfg.TxnTTL = 2 * time.Minute
	}
	w := &Worker{cfg: cfg, target: rulebase.StateStopped, state: rulebase.StateStopped}
	if cfg.Obs != nil {
		w.histTask = cfg.Obs.Hist(metrics.HistWorkerTask)
	}
	return w
}

// Bind exposes the worker's signal endpoint on an RPC server (the SNMP
// client side of the rule-base protocol, Figure 4).
func (w *Worker) Bind(srv *transport.Server) {
	srv.Handle("worker.Signal", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*SignalArgs)
		if !ok {
			return nil, fmt.Errorf("worker: bad signal args %T", arg)
		}
		rec, err := w.Signal(a.Signal, a.SentAt)
		if err != nil {
			return nil, err
		}
		return &SignalReply{Record: rec}, nil
	})
	srv.Handle("worker.State", func(arg interface{}) (interface{}, error) {
		return &StateReply{State: w.State()}, nil
	})
}

// SignalArgs is the RPC frame carrying a control signal.
type SignalArgs struct {
	Signal rulebase.Signal
	SentAt time.Time
}

// SignalReply acknowledges a signal with its latency record.
type SignalReply struct {
	Record SignalRecord
}

// StateReply reports the worker's current state.
type StateReply struct {
	State rulebase.State
}

func init() {
	transport.RegisterType(SignalArgs{})
	transport.RegisterType(SignalReply{})
	transport.RegisterType(StateReply{})
}

// Signal delivers a control signal. The transition is validated and
// interpreted immediately (the run loop adopts it at the next task
// boundary); the returned record carries the measured latencies.
func (w *Worker) Signal(sig rulebase.Signal, sentAt time.Time) (SignalRecord, error) {
	received := w.cfg.Clock.Now()
	w.mu.Lock()
	next, ok := rulebase.Apply(w.target, sig)
	if !ok {
		w.mu.Unlock()
		return SignalRecord{}, fmt.Errorf("%w: %v in %v", ErrBadSignal, sig, w.target)
	}
	w.target = next
	parker := w.parker
	w.mu.Unlock()

	// Burn the signal-handling cost on the node (visible to the caller as
	// worker reaction time, exactly as the paper measures it).
	if cost := signalHandlingCost[sig]; cost > 0 {
		w.cfg.Machine.Compute(cost, 20)
	}
	if parker != nil {
		parker.Wake()
	}
	rec := SignalRecord{Signal: sig, SentAt: sentAt, ReceivedAt: received, AppliedAt: w.cfg.Clock.Now()}
	w.mu.Lock()
	w.signals = append(w.signals, rec)
	w.mu.Unlock()
	return rec, nil
}

// AutoStart marks the worker to begin running without waiting for a
// Start signal — used by scalability experiments that run without the
// network-management module.
func (w *Worker) AutoStart() {
	w.mu.Lock()
	w.target = rulebase.StateRunning
	parker := w.parker
	w.mu.Unlock()
	if parker != nil {
		parker.Wake()
	}
}

// State returns the state the run loop currently occupies.
func (w *Worker) State() rulebase.State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// Stats returns a snapshot of progress counters.
func (w *Worker) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.State = w.state
	if w.cfg.Engine != nil {
		st.Loads = w.cfg.Engine.LoadCount()
	}
	return st
}

// Signals returns the log of received control signals.
func (w *Worker) Signals() []SignalRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SignalRecord, len(w.signals))
	copy(out, w.signals)
	return out
}

// Shutdown asks the run loop to exit at the next boundary.
func (w *Worker) Shutdown() {
	w.mu.Lock()
	w.quit = true
	parker := w.parker
	w.mu.Unlock()
	if parker != nil {
		parker.Wake()
	}
}

// Run executes the worker loop until Shutdown. It must run as a process on
// the worker's clock (e.g. inside vclock.Virtual.Go).
func (w *Worker) Run() {
	w.mu.Lock()
	if w.running {
		w.mu.Unlock()
		panic("worker: Run called twice")
	}
	w.running = true
	w.mu.Unlock()
	for {
		w.mu.Lock()
		if w.quit {
			w.state = rulebase.StateStopped
			w.mu.Unlock()
			return
		}
		target := w.target
		switch target {
		case rulebase.StateStopped:
			if w.program != nil {
				w.program = nil
				if w.cfg.Engine != nil {
					w.cfg.Engine.Unload(w.cfg.Program)
				}
			}
			w.park()
			continue
		case rulebase.StatePaused:
			w.park()
			continue
		}
		// Target is Running.
		needLoad := w.program == nil
		w.mu.Unlock()
		if needLoad {
			if !w.loadProgram() {
				continue
			}
		}
		w.mu.Lock()
		w.state = rulebase.StateRunning
		w.ranBefore = true
		w.mu.Unlock()

		w.runOneTask()
	}
}

// park records the parked state and blocks until woken or parkPoll
// elapses. Caller holds w.mu; park releases it.
func (w *Worker) park() {
	w.state = w.target
	w.parker = w.cfg.Clock.NewWaiter()
	p := w.parker
	w.mu.Unlock()
	p.Wait(parkPoll)
	w.mu.Lock()
	w.parker = nil
	w.mu.Unlock()
}

// loadProgram performs remote node configuration; reports success.
func (w *Worker) loadProgram() bool {
	if w.cfg.Engine == nil {
		return false
	}
	p, err := w.cfg.Engine.Load(w.cfg.Program)
	if err != nil {
		// Transient code-server failure: back off and let the loop retry.
		w.cfg.Clock.Sleep(parkPoll)
		return false
	}
	w.mu.Lock()
	w.program = p
	w.mu.Unlock()
	return true
}

// spaceFailed classifies a space-operation error, counting hard failures;
// it reports whether err was hard (anything but the benign no-entry-yet
// sentinels).
func (w *Worker) spaceFailed(err error) bool {
	if errors.Is(err, tuplespace.ErrTimeout) || errors.Is(err, tuplespace.ErrNoMatch) {
		return false
	}
	w.mu.Lock()
	w.stats.SpaceErrors++
	w.mu.Unlock()
	return true
}

// taskFailed records a failure and backs the worker off for one poll
// period, so a persistently failing ("poisoned") task that keeps
// reappearing after its transaction aborts cannot spin the worker hot.
func (w *Worker) taskFailed() {
	w.mu.Lock()
	w.stats.TaskFailures++
	w.mu.Unlock()
	w.cfg.Clock.Sleep(pollTimeout)
}

// runOneTask takes, executes and answers a single task under its own
// transaction (or returns on poll timeout so the loop can honour signals).
func (w *Worker) runOneTask() {
	tx, err := w.cfg.Space.BeginTxn(w.cfg.TxnTTL)
	if err != nil {
		w.spaceFailed(err)
		w.cfg.Clock.Sleep(pollTimeout)
		return
	}
	takeStart := w.cfg.Clock.Now()
	task, err := w.cfg.Space.Take(w.cfg.TaskTemplate, tx, pollTimeout)
	if err != nil {
		_ = tx.Abort()
		if w.spaceFailed(err) {
			// A hard failure (dead endpoint, partition) returns instantly,
			// unlike a served timeout: back off one poll period so a down
			// window cannot spin the loop hot — on the virtual clock a
			// sleepless retry loop would stall time entirely.
			w.cfg.Clock.Sleep(pollTimeout)
		}
		return // loop re-checks signals
	}
	// The task's trace context is only known now that Take returned, so
	// the take stage is recorded retroactively.
	tracer := w.cfg.Obs.T()
	tc := obs.Extract(task)
	tracer.RecordSince(w.cfg.Clock, tc, "take", w.cfg.Node, takeStart)
	now := w.cfg.Clock.Now()
	w.mu.Lock()
	if w.stats.FirstTaskAt.IsZero() {
		w.stats.FirstTaskAt = now
	}
	prog := w.program
	w.mu.Unlock()

	start := w.cfg.Clock.Now()
	execSpan := tracer.StartChild(w.cfg.Clock, tc, "execute", w.cfg.Node)
	result, err := prog.Execute(nodeconfig.ExecContext{
		Clock:   w.cfg.Clock,
		Machine: w.cfg.Machine,
		Node:    w.cfg.Node,
	}, task)
	execSpan.End()
	if err != nil {
		_ = tx.Abort() // the task reappears for another worker
		w.taskFailed()
		return
	}
	if execSpan != nil {
		// The result carries the execute span so the master can parent its
		// aggregate span to it.
		result = obs.Inject(result, execSpan.Context())
	}
	if _, err := w.cfg.Space.Write(result, tx, tuplespace.Forever); err != nil {
		_ = tx.Abort()
		w.spaceFailed(err)
		w.taskFailed()
		return
	}
	if err := tx.Commit(); err != nil {
		w.spaceFailed(err)
		w.taskFailed()
		return
	}
	done := w.cfg.Clock.Now()
	w.histTask.Record(done.Sub(start))
	w.mu.Lock()
	w.stats.TasksDone++
	w.stats.LastResultAt = done
	w.mu.Unlock()
}
