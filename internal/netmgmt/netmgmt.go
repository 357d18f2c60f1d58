// Package netmgmt implements the paper's network management module: a
// monitoring agent that polls each registered worker's SNMP agent for CPU
// load, an inference engine (the rule base of package rulebase) that
// decides each worker's availability, and the rule-base protocol that
// delivers Start/Stop/Pause/Resume signals to workers (Figure 4). It also
// records, per signal, the client and worker reaction times that Figures
// 9(b), 10(b) and 11(b) report.
package netmgmt

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/rulebase"
	"gospaces/internal/snmp"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
	"gospaces/internal/workerhost"
)

// Config assembles the module's dependencies.
type Config struct {
	Clock vclock.Clock
	// Engine is the inference engine; nil selects default thresholds.
	Engine *rulebase.Engine
	// PollInterval is the SNMP monitoring period. Default 1 s.
	PollInterval time.Duration
	// DialSignal and DialSNMP connect to a worker's endpoints by
	// address; they are required only when workers self-register through
	// the Bind RPC endpoint (steps 1–3 of the rule-base protocol, where
	// the SNMP client initiates its participation).
	DialSignal func(addr string) transport.Client
	DialSNMP   func(addr string) snmp.Exchanger
}

// RegisterArgs is the RPC frame a worker's SNMP client sends to join the
// monitored pool (Figure 4, steps 1–2: "Client connects and sends its
// I.P. Address to Server").
type RegisterArgs struct {
	Node       string
	SNMPAddr   string
	SignalAddr string
}

// RegisterReply acknowledges with the assigned registry identifier
// (Figure 4, step 3: "Server assigns a Client I.D.").
type RegisterReply struct {
	ID int
}

func init() {
	transport.RegisterType(RegisterArgs{})
	transport.RegisterType(RegisterReply{})
}

// Event records one signal decision and its measured latencies.
type Event struct {
	At     time.Time
	Node   string
	Load   float64
	Signal rulebase.Signal
	Record worker.SignalRecord
	Err    error
}

// Module is the network management module.
type Module struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*managed
	nextID  int
	events  []Event
	running bool
	loop    vclock.Loop
}

type managed struct {
	id        int
	node      string
	mgr       *snmp.Manager
	sig       transport.Client
	state     rulebase.State
	ranBefore bool
	lastLoad  float64
}

// New returns a module with no registered workers.
func New(cfg Config) *Module {
	if cfg.Engine == nil {
		cfg.Engine = rulebase.NewEngine(rulebase.DefaultThresholds())
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	return &Module{cfg: cfg, workers: make(map[string]*managed), nextID: 1}
}

// Bind exposes the module's registration endpoint on an RPC server, so
// workers can initiate their own participation as in Figure 4. Config
// must provide DialSignal and DialSNMP.
func (m *Module) Bind(srv *transport.Server) {
	srv.Handle("netman.Register", func(arg interface{}) (interface{}, error) {
		a, ok := arg.(*RegisterArgs)
		if !ok {
			return nil, fmt.Errorf("netmgmt: bad register args %T", arg)
		}
		if m.cfg.DialSignal == nil || m.cfg.DialSNMP == nil {
			return nil, fmt.Errorf("netmgmt: self-registration not configured")
		}
		id := m.Register(a.Node, m.cfg.DialSNMP(a.SNMPAddr), m.cfg.DialSignal(a.SignalAddr))
		return &RegisterReply{ID: id}, nil
	})
}

// HandleTrap processes a trap from a node: a valid load-band trap
// triggers an immediate monitoring round for that node, so reaction does
// not wait out the poll interval. It returns the event generated, if any.
func (m *Module) HandleTrap(node string, packet []byte) (*Event, error) {
	trapOID, _, err := snmp.ParseTrap(packet)
	if err != nil {
		return nil, err
	}
	if !trapOID.Equal(snmp.OIDLoadBandTrap) {
		return nil, fmt.Errorf("netmgmt: unexpected trap %s from %s", trapOID, node)
	}
	m.mu.Lock()
	w := m.workers[node]
	m.mu.Unlock()
	if w == nil {
		return nil, fmt.Errorf("netmgmt: trap from unregistered node %s", node)
	}
	return m.pollWorker(w), nil
}

// Register enrols a worker node: its SNMP agent is reachable through ex
// and its signal endpoint through sig (steps 1–3 of the rule-base
// protocol). The returned ID is the worker's registry identifier.
func (m *Module) Register(node string, ex snmp.Exchanger, sig transport.Client) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &managed{
		id:    m.nextID,
		node:  node,
		mgr:   snmp.NewManager(workerhost.Community, ex),
		sig:   sig,
		state: rulebase.StateStopped,
	}
	m.nextID++
	m.workers[node] = w
	return w.id
}

// Unregister removes a worker from monitoring.
func (m *Module) Unregister(node string) {
	m.mu.Lock()
	w := m.workers[node]
	delete(m.workers, node)
	m.mu.Unlock()
	if w != nil {
		_ = w.mgr.Close()
		_ = w.sig.Close()
	}
}

// WorkerState returns the tracked state of a node.
func (m *Module) WorkerState(node string) (rulebase.State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[node]
	if !ok {
		return rulebase.StateStopped, false
	}
	return w.state, true
}

// LastLoad returns the most recent polled load for a node.
func (m *Module) LastLoad(node string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[node]
	if !ok {
		return 0, false
	}
	return w.lastLoad, true
}

// Events returns the signal log.
func (m *Module) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// PollOnce performs one monitoring round: query every worker's CPU load
// via SNMP, run the inference engine, and deliver any signals. It returns
// the events generated this round.
func (m *Module) PollOnce() []Event {
	m.mu.Lock()
	list := make([]*managed, 0, len(m.workers))
	for _, w := range m.workers {
		list = append(list, w)
	}
	m.mu.Unlock()
	// Deterministic order by registration ID.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j-1].id > list[j].id; j-- {
			list[j-1], list[j] = list[j], list[j-1]
		}
	}

	var round []Event
	for _, w := range list {
		ev := m.pollWorker(w)
		if ev != nil {
			round = append(round, *ev)
		}
	}
	return round
}

// pollWorker monitors one node and signals it if the rule base demands.
func (m *Module) pollWorker(w *managed) *Event {
	load, err := w.mgr.GetInt(snmp.OIDHrProcessorLoad)
	if err != nil {
		return m.record(Event{At: m.cfg.Clock.Now(), Node: w.node, Err: fmt.Errorf("netmgmt: poll %s: %w", w.node, err)})
	}
	// The worker's own cycle-stealing load must not count against the
	// node: the agent exports background load on a dedicated OID when
	// available, otherwise we use total utilization.
	bg, bgErr := w.mgr.GetInt(snmp.OIDBackgroundLoad)
	effective := float64(load)
	if bgErr == nil {
		effective = float64(bg)
	}

	m.mu.Lock()
	w.lastLoad = effective
	state, ranBefore := w.state, w.ranBefore
	m.mu.Unlock()

	sig := m.cfg.Engine.Decide(state, effective, ranBefore)
	if sig == rulebase.SignalNone {
		return nil
	}
	sent := m.cfg.Clock.Now()
	res, err := w.sig.Call("worker.Signal", &worker.SignalArgs{Signal: sig, SentAt: sent})
	ev := Event{At: sent, Node: w.node, Load: effective, Signal: sig}
	if err != nil {
		ev.Err = err
		return m.record(ev)
	}
	reply, ok := res.(*worker.SignalReply)
	if !ok {
		ev.Err = fmt.Errorf("netmgmt: bad signal reply %T", res)
		return m.record(ev)
	}
	ev.Record = reply.Record
	m.mu.Lock()
	w.state, _ = rulebase.Apply(w.state, sig)
	if sig == rulebase.SignalStart || sig == rulebase.SignalRestart {
		w.ranBefore = true
	}
	m.mu.Unlock()
	return m.record(ev)
}

func (m *Module) record(ev Event) *Event {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
	return &ev
}

// Run polls until Shutdown, sleeping PollInterval between rounds. It must
// run as a process on the module's clock.
func (m *Module) Run() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		panic("netmgmt: Run called twice")
	}
	m.running = true
	m.mu.Unlock()
	// The first round polls at once: a zero Tick only asks whether
	// Shutdown came first.
	for d := time.Duration(0); m.loop.Tick(m.cfg.Clock, d); d = m.cfg.PollInterval {
		m.PollOnce()
	}
}

// Shutdown stops the poll loop.
func (m *Module) Shutdown() { m.loop.Stop() }
