// Package netmgmt implements the paper's network management module: a
// monitoring agent that polls each worker's SNMP agent for CPU load, an
// inference engine (the rule base of package rulebase) that decides each
// worker's availability, and the rule-base protocol that delivers
// Start/Stop/Pause/Resume signals to workers (Figure 4). It also records,
// per signal, the client and worker reaction times that Figures 9(b),
// 10(b) and 11(b) report.
//
// The module finds its workers in the lookup service and nowhere else:
// every worker node announces itself there (package workerhost), and each
// monitoring round starts by reading that list — Figure 4's steps 1–3 are
// the node's registration and the round that discovers it.
package netmgmt

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/rulebase"
	"gospaces/internal/snmp"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
	"gospaces/internal/workerhost"
)

// Env is where the module finds its workers and how it reaches them — what
// differs between the simulator and a TCP deployment, and nothing else.
type Env struct {
	// Lookup returns the lookup service's items matching tmpl, in
	// registration order.
	Lookup func(tmpl map[string]string) ([]discovery.ServiceItem, error)
	// Link connects the module to the SNMP agent and the signal endpoint
	// a worker's item announces.
	Link func(item discovery.ServiceItem) (snmp.Exchanger, transport.Client, error)
}

// InProcEnv reads the in-process registry reg directly — discovery charges
// no modeled time — and reaches each worker over nw from endpoint from, so
// a fault plan sees the manager's calls leave there.
func InProcEnv(nw *transport.Network, from string, reg *discovery.Registry) Env {
	return Env{
		Lookup: func(tmpl map[string]string) ([]discovery.ServiceItem, error) { return reg.Lookup(tmpl), nil },
		Link: func(item discovery.ServiceItem) (snmp.Exchanger, transport.Client, error) {
			return &snmp.RPCExchanger{C: nw.DialAs(from, item.Attributes[workerhost.AttrSNMP])}, nw.DialAs(from, item.Address), nil
		},
	}
}

// TCPEnv reads the lookup service through lc and reaches each worker over
// sockets: signals over TCP, SNMP over UDP.
func TCPEnv(lc *discovery.Client) Env {
	return Env{
		Lookup: lc.Lookup,
		Link: func(item discovery.ServiceItem) (snmp.Exchanger, transport.Client, error) {
			sig, err := transport.DialTCP(item.Address)
			if err != nil {
				return nil, nil, err
			}
			return &snmp.UDPExchanger{Addr: item.Attributes[workerhost.AttrSNMP]}, sig, nil
		},
	}
}

// Config assembles the module's dependencies.
type Config struct {
	Clock vclock.Clock
	// Env is where the workers are found and how they are reached.
	Env Env
	// Engine is the inference engine; nil selects default thresholds.
	Engine *rulebase.Engine
	// PollInterval is the SNMP monitoring period. Default 1 s.
	PollInterval time.Duration
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

	mu sync.Mutex
	// workers are the linked workers in the lookup service's registration
	// order, the poll order; discover replaces the slice, never edits it.
	workers []*managed
	events  []Event
	running bool
	loop    vclock.Loop
}

type managed struct {
	item      discovery.ServiceItem // the announcement the links were made from
	mgr       *snmp.Manager
	sig       transport.Client
	state     rulebase.State
	ranBefore bool
	lastLoad  float64
}

// New returns a module that has discovered no workers yet.
func New(cfg Config) *Module {
	if cfg.Engine == nil {
		cfg.Engine = rulebase.NewEngine(rulebase.DefaultThresholds())
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	return &Module{cfg: cfg}
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
	w := m.find(node)
	if w == nil {
		return nil, fmt.Errorf("netmgmt: trap from unregistered node %s", node)
	}
	return m.pollWorker(w), nil
}

// discover reconciles the monitored workers with the lookup service's
// worker items: a new item is linked, one that is gone is dropped, and one
// whose announcement changed — a node replaced under its name — is linked
// afresh, so its new node gets its own Start. A name listed twice (a
// restarted node whose predecessor's lease has not lapsed) is its latest
// registration's. Every dropped or replaced worker's links are closed. It
// returns the events of lookups and links that failed; a failed lookup
// leaves the monitored set as it was.
func (m *Module) discover() []Event {
	items, err := m.cfg.Env.Lookup(map[string]string{"type": workerhost.ServiceType})
	if err != nil {
		return []Event{*m.record(Event{At: m.cfg.Clock.Now(), Err: fmt.Errorf("netmgmt: lookup: %w", err)})}
	}
	latest := make(map[string]int, len(items))
	for i, it := range items {
		latest[it.Name] = i
	}
	m.mu.Lock()
	old := make(map[string]*managed, len(m.workers))
	for _, w := range m.workers {
		old[w.item.Name] = w
	}
	m.mu.Unlock()
	var linked []*managed
	var failed []Event
	for i, it := range items {
		if latest[it.Name] != i {
			continue
		}
		if w := old[it.Name]; w != nil && it.Address == w.item.Address && maps.Equal(it.Attributes, w.item.Attributes) {
			delete(old, it.Name)
			linked = append(linked, w)
			continue
		}
		ex, sig, err := m.cfg.Env.Link(it)
		if err != nil {
			failed = append(failed, *m.record(Event{At: m.cfg.Clock.Now(), Node: it.Name, Err: fmt.Errorf("netmgmt: link %s: %w", it.Name, err)}))
			continue
		}
		linked = append(linked, &managed{item: it, mgr: snmp.NewManager(workerhost.Community, ex), sig: sig, state: rulebase.StateStopped})
	}
	m.mu.Lock()
	m.workers = linked
	m.mu.Unlock()
	for _, w := range old {
		w.close()
	}
	return failed
}

// close hangs up the module's links to w.
func (w *managed) close() {
	_ = w.mgr.Close()
	_ = w.sig.Close()
}

// find returns the linked worker named node, or nil.
func (m *Module) find(node string) *managed {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		if w.item.Name == node {
			return w
		}
	}
	return nil
}

// WorkerState returns the tracked state of a node.
func (m *Module) WorkerState(node string) (rulebase.State, bool) {
	w := m.find(node)
	if w == nil {
		return rulebase.StateStopped, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return w.state, true
}

// LastLoad returns the most recent polled load for a node.
func (m *Module) LastLoad(node string) (float64, bool) {
	w := m.find(node)
	if w == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
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

// PollOnce performs one monitoring round: read the workers from the lookup
// service, query every worker's CPU load via SNMP, run the inference
// engine, and deliver any signals. It returns the events generated this
// round.
func (m *Module) PollOnce() []Event {
	round := m.discover()
	m.mu.Lock()
	list := m.workers
	m.mu.Unlock()
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
		return m.record(Event{At: m.cfg.Clock.Now(), Node: w.item.Name, Err: fmt.Errorf("netmgmt: poll %s: %w", w.item.Name, err)})
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
	ev := Event{At: sent, Node: w.item.Name, Load: effective, Signal: sig}
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

// Run polls until Shutdown, sleeping PollInterval between rounds, then
// closes every worker's links. Each event a round returns goes to each,
// when it is not nil, in the round's order. It must run as a process on
// the module's clock.
func (m *Module) Run(each func(Event)) {
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
		for _, ev := range m.PollOnce() {
			if each != nil {
				each(ev)
			}
		}
	}
	m.mu.Lock()
	list := m.workers
	m.workers = nil
	m.mu.Unlock()
	for _, w := range list {
		w.close()
	}
}

// Shutdown stops the poll loop.
func (m *Module) Shutdown() { m.loop.Stop() }
