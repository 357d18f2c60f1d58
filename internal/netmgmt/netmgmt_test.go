package netmgmt

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/discovery"
	"gospaces/internal/rulebase"
	"gospaces/internal/snmp"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
	"gospaces/internal/workerhost"
)

// fakeNode wires a machine, its SNMP agent, and a bare worker signal
// endpoint on an in-proc network address.
type fakeNode struct {
	machine *sysmon.Machine
	w       *worker.Worker
	addr    string
}

func newFakeNode(clk vclock.Clock, net *transport.Network, name string) *fakeNode {
	m := sysmon.NewMachine(clk, name, 1)
	srv := transport.NewServer()
	agent(m).Bind(srv)
	w := worker.New(worker.Config{Node: name, Clock: clk, Machine: m})
	w.Bind(srv)
	net.Listen(name, srv)
	return &fakeNode{machine: m, w: w, addr: name}
}

// agent answers the two load OIDs the module reads from m.
func agent(m *sysmon.Machine) *snmp.Agent {
	mib := snmp.NewMIB()
	mib.Register(snmp.OIDHrProcessorLoad, func() snmp.Value {
		return snmp.Integer(int64(m.RecordSample().Usage + 0.5))
	})
	mib.Register(snmp.OIDBackgroundLoad, func() snmp.Value {
		return snmp.Integer(int64(m.BackgroundLoad() + 0.5))
	})
	return snmp.NewAgent(workerhost.Community, mib)
}

// incarnations tells the tests' announcements apart, as a worker node's do.
var incarnations atomic.Uint64

// announce lists a worker named name in reg, its signal endpoint at sig and
// its SNMP agent at snmpAddr, and returns the registration ID.
func announce(reg *discovery.Registry, name, sig, snmpAddr string) uint64 {
	return reg.Register(discovery.ServiceItem{Name: name, Address: sig, Attributes: map[string]string{
		"type": workerhost.ServiceType, workerhost.AttrSNMP: snmpAddr,
		workerhost.AttrIncarnation: fmt.Sprint(incarnations.Add(1)),
	}}, 0)
}

// newModule returns a module that finds its workers in a registry where
// every node in nodes is announced, and reaches them over net.
func newModule(clk vclock.Clock, net *transport.Network, nodes ...*fakeNode) *Module {
	reg := discovery.NewRegistry(clk)
	for _, n := range nodes {
		announce(reg, n.addr, n.addr, n.addr)
	}
	return New(Config{Clock: clk, Env: InProcEnv(net, reg), PollInterval: 500 * time.Millisecond})
}

func TestPollStartsIdleWorker(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	clk.Run(func() {
		evs := mod.PollOnce()
		if len(evs) != 1 || evs[0].Signal != rulebase.SignalStart {
			t.Errorf("events = %+v, want one Start", evs)
		}
		if st, _ := mod.WorkerState("n1"); st != rulebase.StateRunning {
			t.Errorf("tracked state = %v", st)
		}
		// Second poll with no load change: no signal.
		if evs := mod.PollOnce(); len(evs) != 0 {
			t.Errorf("redundant events %+v", evs)
		}
	})
}

func TestPauseStopResumeRestartSequence(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	clk.Run(func() {
		mod.PollOnce() // Start
		// Moderate load → Pause.
		n.machine.SetConstSource("user", 35)
		evs := mod.PollOnce()
		if len(evs) != 1 || evs[0].Signal != rulebase.SignalPause {
			t.Fatalf("events = %+v, want Pause", evs)
		}
		// Load drops → Resume.
		n.machine.ClearSource("user")
		evs = mod.PollOnce()
		if len(evs) != 1 || evs[0].Signal != rulebase.SignalResume {
			t.Fatalf("events = %+v, want Resume", evs)
		}
		// Heavy load → Stop.
		n.machine.SetConstSource("user", 95)
		evs = mod.PollOnce()
		if len(evs) != 1 || evs[0].Signal != rulebase.SignalStop {
			t.Fatalf("events = %+v, want Stop", evs)
		}
		// Load clears → Restart (not Start: the worker ran before).
		n.machine.ClearSource("user")
		evs = mod.PollOnce()
		if len(evs) != 1 || evs[0].Signal != rulebase.SignalRestart {
			t.Fatalf("events = %+v, want Restart", evs)
		}
	})
	// All five signals recorded with latency records.
	events := mod.Events()
	if len(events) != 5 {
		t.Fatalf("%d events", len(events))
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("event error: %v", ev.Err)
		}
		if ev.Record.ClientTime() < 0 || ev.Record.WorkerTime() <= 0 {
			t.Fatalf("latencies not measured: %+v", ev.Record)
		}
	}
}

func TestWorkerOwnLoadDoesNotStopIt(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	clk.Run(func() {
		mod.PollOnce() // Start
		// The framework's own worker saturates the CPU — the background
		// OID excludes it, so no signal is sent.
		n.machine.SetConstSource(sysmon.WorkerSource, 100)
		if evs := mod.PollOnce(); len(evs) != 0 {
			t.Errorf("worker's own load triggered %+v", evs)
		}
		if load, _ := mod.LastLoad("n1"); load != 0 {
			t.Errorf("effective load = %v, want 0", load)
		}
	})
}

func TestFallbackToTotalLoadWithoutBackgroundOID(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	// Agent without the enterprise OID (a plain hrProcessorLoad agent).
	m := sysmon.NewMachine(clk, "plain", 1)
	mib := snmp.NewMIB()
	mib.Register(snmp.OIDHrProcessorLoad, func() snmp.Value {
		return snmp.Integer(int64(m.Usage()))
	})
	srv := transport.NewServer()
	snmp.NewAgent("public", mib).Bind(srv)
	w := worker.New(worker.Config{Node: "plain", Clock: clk, Machine: m})
	w.Bind(srv)
	net.Listen("plain", srv)

	reg := discovery.NewRegistry(clk)
	announce(reg, "plain", "plain", "plain")
	mod := New(Config{Clock: clk, Env: InProcEnv(net, reg), PollInterval: time.Second})
	clk.Run(func() {
		m.SetConstSource("user", 60)
		if evs := mod.PollOnce(); len(evs) != 0 {
			t.Errorf("stopped worker under load signalled: %+v", evs)
		}
		if load, _ := mod.LastLoad("plain"); load != 60 {
			t.Errorf("load = %v, want 60 (total)", load)
		}
	})
}

func TestPollErrorRecorded(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	reg := discovery.NewRegistry(clk)
	announce(reg, "ghost", "ghost", "ghost")
	mod := New(Config{Clock: clk, Env: InProcEnv(net, reg), PollInterval: time.Second})
	clk.Run(func() {
		evs := mod.PollOnce()
		if len(evs) != 1 || evs[0].Err == nil {
			t.Errorf("events = %+v, want one error event", evs)
		}
	})
}

func TestRunLoopPollsPeriodically(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	clk.Run(func() {
		clk.Go(func() { mod.Run(nil) })
		clk.Sleep(2 * time.Second)
		// Raise load mid-run; the loop must notice within a poll period.
		n.machine.SetConstSource("user", 95)
		clk.Sleep(1200 * time.Millisecond)
		if st, _ := mod.WorkerState("n1"); st != rulebase.StateStopped {
			t.Errorf("state = %v, want Stopped", st)
		}
		mod.Shutdown()
	})
	if len(mod.workers) != 0 {
		t.Errorf("%d workers still linked after Run ended", len(mod.workers))
	}
	// History trace exists (samples recorded by polling).
	if len(n.machine.History()) == 0 {
		t.Fatal("no CPU usage history recorded")
	}
}

func TestShutdownBeforeRunPollsNothing(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	mod.Shutdown()
	clk.Run(func() {
		clk.Go(func() { mod.Run(nil) }) // must exit without polling
		clk.Sleep(2 * time.Second)
	})
	if evs := mod.Events(); len(evs) != 0 {
		t.Fatalf("events = %+v, want none", evs)
	}
	if st, _ := mod.WorkerState("n1"); st != rulebase.StateStopped {
		t.Fatalf("state = %v, want Stopped", st)
	}
}

// TestSignalDeliveryFailureRecorded: when the worker's endpoint rejects a
// signal, the event carries the error and the tracked state is unchanged.
func TestSignalDeliveryFailureRecorded(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	// A node whose SNMP agent works but whose signal endpoint always
	// errors (no worker.Signal handler bound).
	m := sysmon.NewMachine(clk, "broken", 1)
	mib := snmp.NewMIB()
	mib.Register(snmp.OIDHrProcessorLoad, func() snmp.Value { return snmp.Integer(int64(m.Usage())) })
	srv := transport.NewServer()
	snmp.NewAgent("public", mib).Bind(srv)
	net.Listen("broken", srv)

	reg := discovery.NewRegistry(clk)
	announce(reg, "broken", "broken", "broken")
	mod := New(Config{Clock: clk, Env: InProcEnv(net, reg), PollInterval: time.Second})
	clk.Run(func() {
		evs := mod.PollOnce()
		if len(evs) != 1 || evs[0].Err == nil {
			t.Errorf("events = %+v, want one errored Start", evs)
		}
		if st, _ := mod.WorkerState("broken"); st != rulebase.StateStopped {
			t.Errorf("state advanced to %v despite delivery failure", st)
		}
	})
}

// TestTrapTriggersImmediatePoll: a load-band trap from a registered node
// causes an out-of-band monitoring round.
func TestTrapTriggersImmediatePoll(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	clk.Run(func() {
		mod.PollOnce() // Start
		n.machine.SetConstSource("user", 95)
		// Node-side watcher would fire this trap on the band crossing.
		sender := snmp.NewTrapSender("public", snmp.TrapSinkFunc(func(pkt []byte) error {
			ev, err := mod.HandleTrap("n1", pkt)
			if err != nil {
				return err
			}
			if ev == nil || ev.Signal != rulebase.SignalStop {
				t.Errorf("trap round produced %+v, want Stop", ev)
			}
			return nil
		}))
		if err := sender.Send(snmp.TimeTicks(1), snmp.OIDLoadBandTrap); err != nil {
			t.Error(err)
		}
		if st, _ := mod.WorkerState("n1"); st != rulebase.StateStopped {
			t.Errorf("state after trap = %v", st)
		}
	})
}

func TestTrapFromUnknownNodeRejected(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	mod := New(Config{Clock: clk})
	_ = net
	sender := snmp.NewTrapSender("public", snmp.TrapSinkFunc(func(pkt []byte) error {
		if _, err := mod.HandleTrap("ghost", pkt); err == nil {
			t.Error("trap from unregistered node accepted")
		}
		return nil
	}))
	clk.Run(func() {
		if err := sender.Send(snmp.TimeTicks(1), snmp.OIDLoadBandTrap); err != nil {
			t.Error(err)
		}
		// A non-load-band trap is also rejected.
		other := snmp.NewTrapSender("public", snmp.TrapSinkFunc(func(pkt []byte) error {
			if _, err := mod.HandleTrap("n1", pkt); err == nil {
				t.Error("foreign trap accepted")
			}
			return nil
		}))
		if err := other.Send(snmp.TimeTicks(1), snmp.MustOID("1.3.6.1.4.1.9.9.9")); err != nil {
			t.Error(err)
		}
	})
}

// TestUnregisterStopsMonitoring: a node whose registration is cancelled is
// dropped on the next round, its links closed.
func TestUnregisterStopsMonitoring(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	newFakeNode(clk, net, "n1")
	reg := discovery.NewRegistry(clk)
	id := announce(reg, "n1", "n1", "n1")
	mod := New(Config{Clock: clk, Env: InProcEnv(net, reg)})
	clk.Run(func() {
		mod.PollOnce()
		sig := mod.find("n1").sig
		if err := reg.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if evs := mod.PollOnce(); len(evs) != 0 {
			t.Errorf("unregistered node polled: %+v", evs)
		}
		if _, ok := mod.WorkerState("n1"); ok {
			t.Error("state still tracked after unregister")
		}
		if _, err := sig.Call("worker.Signal", &worker.SignalArgs{Signal: rulebase.SignalStop}); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("signal link after unregister: err = %v, want ErrClosed", err)
		}
	})
}

// binding is one of the module's two environments under test, with a
// registry behind its lookup service and a way to put a worker node on its
// network.
type binding struct {
	name  string
	clock vclock.Clock
	reg   *discovery.Registry
	env   Env
	// serve puts a fake worker node named name on the network, at sig and
	// snmpAddr when they are set (a node restarted in place), and returns
	// its worker, where it answers and a function taking it off.
	serve func(t *testing.T, name, sig, snmpAddr string) (w *worker.Worker, addr, snmpAt string, stop func())
}

func inprocBinding(t *testing.T) binding {
	clk := vclock.NewReal()
	net := transport.NewNetwork(clk, transport.Loopback())
	reg := discovery.NewRegistry(clk)
	return binding{
		name: "inproc", clock: clk, reg: reg, env: InProcEnv(net, reg),
		serve: func(_ *testing.T, name, _, _ string) (*worker.Worker, string, string, func()) {
			n := newFakeNode(clk, net, "node/"+name)
			return n.w, n.addr, n.addr, func() {}
		},
	}
}

func tcpBinding(t *testing.T) binding {
	clk := vclock.NewReal()
	reg := discovery.NewRegistry(clk)
	lsrv := transport.NewServer()
	discovery.NewService(reg, lsrv)
	ll, err := transport.ListenTCP("127.0.0.1:0", lsrv)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := transport.DialTCP(ll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close(); ll.Close() })
	or := func(addr string) string {
		if addr == "" {
			return "127.0.0.1:0"
		}
		return addr
	}
	return binding{
		name: "tcp", clock: clk, reg: reg, env: TCPEnv(discovery.NewClient(lc)),
		serve: func(t *testing.T, name, sig, snmpAddr string) (*worker.Worker, string, string, func()) {
			srv := transport.NewServer()
			m := sysmon.NewMachine(clk, name, 1)
			w := worker.New(worker.Config{Node: name, Clock: clk, Machine: m})
			w.Bind(srv)
			l, err := transport.ListenTCP(or(sig), srv)
			if err != nil {
				t.Fatal(err)
			}
			u, err := snmp.ListenUDP(or(snmpAddr), agent(m))
			if err != nil {
				l.Close()
				t.Fatal(err)
			}
			stop := func() { u.Close(); l.Close() }
			t.Cleanup(stop)
			return w, l.Addr(), u.Addr(), stop
		},
	}
}

// TestDiscoveryRound drives the one way the module finds its workers, over
// the in-process network and over sockets: a node announced in the lookup
// service gets Start on the first round; cancelled, it is dropped on the
// next and its links closed; announced again under its name it gets a
// fresh Start; and a node replaced in place between two rounds — same name,
// same addresses, a new announcement — gets its own Start too.
func TestDiscoveryRound(t *testing.T) {
	for _, bind := range []func(*testing.T) binding{inprocBinding, tcpBinding} {
		b := bind(t)
		t.Run(b.name, func(t *testing.T) {
			mod := New(Config{Clock: b.clock, Env: b.env})
			started := func(step string, w *worker.Worker, evs []Event) {
				t.Helper()
				if len(evs) != 1 || evs[0].Node != "n1" || evs[0].Signal != rulebase.SignalStart || evs[0].Err != nil {
					t.Fatalf("%s: events = %+v, want one Start to n1", step, evs)
				}
				if sigs := w.Signals(); len(sigs) != 1 || sigs[0].Signal != rulebase.SignalStart {
					t.Fatalf("%s: the node received %+v, want one Start", step, sigs)
				}
			}

			w, sig, snmpAt, stop := b.serve(t, "n1", "", "")
			id := announce(b.reg, "n1", sig, snmpAt)
			started("first round", w, mod.PollOnce())

			link := mod.find("n1").sig
			if err := b.reg.Cancel(id); err != nil {
				t.Fatal(err)
			}
			stop()
			if evs := mod.PollOnce(); len(evs) != 0 {
				t.Fatalf("round after cancel: events = %+v, want none", evs)
			}
			if _, ok := mod.WorkerState("n1"); ok {
				t.Fatal("a cancelled node is still monitored")
			}
			if _, err := link.Call("worker.Signal", &worker.SignalArgs{Signal: rulebase.SignalStop}); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("the dropped node's signal link: err = %v, want ErrClosed", err)
			}

			w, sig, snmpAt, stop = b.serve(t, "n1", sig, snmpAt)
			id = announce(b.reg, "n1", sig, snmpAt)
			started("announced again", w, mod.PollOnce())
			if evs := mod.PollOnce(); len(evs) != 0 {
				t.Fatalf("steady round: events = %+v, want none", evs)
			}

			// Replaced in place: the old node leaves and the new one arrives
			// at its addresses before the module looks again.
			if err := b.reg.Cancel(id); err != nil {
				t.Fatal(err)
			}
			stop()
			w, sig, snmpAt, _ = b.serve(t, "n1", sig, snmpAt)
			announce(b.reg, "n1", sig, snmpAt)
			started("replaced in place", w, mod.PollOnce())
		})
	}
}

// TestLatestRegistrationOfANameWins: a restarted node announces while its
// predecessor's registration is still listed; the module manages the new
// one, and does not flap between the two.
func TestLatestRegistrationOfANameWins(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	old, cur := newFakeNode(clk, net, "old"), newFakeNode(clk, net, "cur")
	reg := discovery.NewRegistry(clk)
	announce(reg, "n1", old.addr, old.addr)
	announce(reg, "n1", cur.addr, cur.addr)
	mod := New(Config{Clock: clk, Env: InProcEnv(net, reg)})
	clk.Run(func() {
		for i := 0; i < 3; i++ {
			mod.PollOnce()
		}
	})
	if got := len(old.w.Signals()); got != 0 {
		t.Errorf("the stale registration's node got %d signals", got)
	}
	if sigs := cur.w.Signals(); len(sigs) != 1 || sigs[0].Signal != rulebase.SignalStart {
		t.Errorf("the latest registration's node got %+v, want one Start", sigs)
	}
}
