package netmgmt

import (
	"testing"
	"time"

	"gospaces/internal/rulebase"
	"gospaces/internal/snmp"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
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
	mib := snmp.NewMIB()
	mib.Register(snmp.OIDHrProcessorLoad, func() snmp.Value {
		return snmp.Integer(int64(m.RecordSample().Usage + 0.5))
	})
	mib.Register(snmp.OIDBackgroundLoad, func() snmp.Value {
		return snmp.Integer(int64(m.BackgroundLoad() + 0.5))
	})
	agent := snmp.NewAgent("public", mib)
	srv := transport.NewServer()
	agent.Bind(srv)
	w := worker.New(worker.Config{Node: name, Clock: clk})
	w.Bind(srv)
	net.Listen(name, srv)
	return &fakeNode{machine: m, w: w, addr: name}
}

func newModule(clk vclock.Clock, net *transport.Network, nodes ...*fakeNode) *Module {
	mod := New(Config{Clock: clk, PollInterval: 500 * time.Millisecond})
	for _, n := range nodes {
		mod.Register(n.addr, &snmp.RPCExchanger{C: net.Dial(n.addr)}, net.Dial(n.addr))
	}
	return mod
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
	w := worker.New(worker.Config{Node: "plain", Clock: clk})
	w.Bind(srv)
	net.Listen("plain", srv)

	mod := New(Config{Clock: clk, PollInterval: time.Second})
	mod.Register("plain", &snmp.RPCExchanger{C: net.Dial("plain")}, net.Dial("plain"))
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
	mod := New(Config{Clock: clk, PollInterval: time.Second})
	mod.Register("ghost", &snmp.RPCExchanger{C: net.Dial("ghost")}, net.Dial("ghost"))
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
		clk.Go(mod.Run)
		clk.Sleep(2 * time.Second)
		// Raise load mid-run; the loop must notice within a poll period.
		n.machine.SetConstSource("user", 95)
		clk.Sleep(1200 * time.Millisecond)
		if st, _ := mod.WorkerState("n1"); st != rulebase.StateStopped {
			t.Errorf("state = %v, want Stopped", st)
		}
		mod.Shutdown()
	})
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
		clk.Go(mod.Run) // must exit without polling
		clk.Sleep(2 * time.Second)
	})
	if evs := mod.Events(); len(evs) != 0 {
		t.Fatalf("events = %+v, want none", evs)
	}
	if st, _ := mod.WorkerState("n1"); st != rulebase.StateStopped {
		t.Fatalf("state = %v, want Stopped", st)
	}
}

// TestWorkerSelfRegistration exercises steps 1–3 of the rule-base
// protocol: the worker's SNMP client initiates participation and the
// server assigns it an ID, after which polling drives it normally.
func TestWorkerSelfRegistration(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := New(Config{
		Clock:        clk,
		PollInterval: time.Second,
		DialSignal:   func(addr string) transport.Client { return net.Dial(addr) },
		DialSNMP: func(addr string) snmp.Exchanger {
			return &snmp.RPCExchanger{C: net.Dial(addr)}
		},
	})
	srv := transport.NewServer()
	mod.Bind(srv)
	net.Listen("netman", srv)

	clk.Run(func() {
		// The worker side registers itself.
		res, err := net.Dial("netman").Call("netman.Register", &RegisterArgs{
			Node: "n1", SNMPAddr: n.addr, SignalAddr: n.addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.(*RegisterReply).ID <= 0 {
			t.Fatalf("reply = %+v", res)
		}
		evs := mod.PollOnce()
		if len(evs) != 1 || evs[0].Signal != rulebase.SignalStart {
			t.Fatalf("events after self-registration = %+v", evs)
		}
	})
}

func TestSelfRegistrationUnconfigured(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	mod := New(Config{Clock: clk})
	srv := transport.NewServer()
	mod.Bind(srv)
	net.Listen("netman", srv)
	clk.Run(func() {
		if _, err := net.Dial("netman").Call("netman.Register", &RegisterArgs{Node: "x"}); err == nil {
			t.Fatal("unconfigured self-registration accepted")
		}
	})
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

	mod := New(Config{Clock: clk, PollInterval: time.Second})
	mod.Register("broken", &snmp.RPCExchanger{C: net.Dial("broken")}, net.Dial("broken"))
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

func TestUnregisterStopsMonitoring(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork(clk, transport.Loopback())
	n := newFakeNode(clk, net, "n1")
	mod := newModule(clk, net, n)
	clk.Run(func() {
		mod.PollOnce()
		mod.Unregister("n1")
		if evs := mod.PollOnce(); len(evs) != 0 {
			t.Errorf("unregistered node polled: %+v", evs)
		}
		if _, ok := mod.WorkerState("n1"); ok {
			t.Error("state still tracked after unregister")
		}
	})
}
