package workerhost

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/discovery"
	"gospaces/internal/master"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/rulebase"
	"gospaces/internal/shard"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
)

// kv is the tests' entry: keyed, so the ring places it.
type kv struct {
	K string `space:"index"`
	V int
}

func init() { transport.RegisterType(kv{}) }

// watch is the tests' ring watch interval; a host given it drains for
// 2×watch after a cutover.
const watch = 50 * time.Millisecond

// deployment is one environment under test: a lookup service, the Env a
// shard host runs on, the Env of a worker node, and how a network manager
// reaches a node it found.
type deployment struct {
	name    string
	clock   vclock.Clock
	reg     *discovery.Registry
	hostEnv shardhost.Env
	nodeEnv func(node string) Env
	manage  func(t *testing.T, n *Node) (snmp.Exchanger, transport.Client)
}

// inproc deploys on an in-process network.
func inproc(t *testing.T) deployment {
	clk := vclock.NewReal()
	nw := transport.NewNetwork(clk, transport.Loopback())
	reg := discovery.NewRegistry(clk)
	lsrv := transport.NewServer()
	discovery.NewService(reg, lsrv)
	nw.Listen(discovery.WellKnownAddress, lsrv)
	return deployment{
		name: "inproc", clock: clk, reg: reg,
		hostEnv: shardhost.InProcEnv(nw, "master", reg),
		nodeEnv: func(node string) Env { return InProcEnv(nw, "node/"+node, reg) },
		manage: func(_ *testing.T, n *Node) (snmp.Exchanger, transport.Client) {
			return &snmp.RPCExchanger{C: nw.Dial(n.SNMPAddr())}, nw.Dial(n.Addr())
		},
	}
}

// tcp deploys on loopback sockets — what cmd/master and cmd/worker run.
func tcp(t *testing.T) deployment {
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
	group := vclock.NewGroup(clk)
	t.Cleanup(func() { group.Wait(); lc.Close(); ll.Close() })
	hostEnv, err := shardhost.TCPEnv("127.0.0.1:0", discovery.NewClient(lc))
	if err != nil {
		t.Fatal(err)
	}
	hostEnv.Spawn = group.Go
	return deployment{
		name: "tcp", clock: clk, reg: reg, hostEnv: hostEnv,
		nodeEnv: func(string) Env { return TCPEnv(ll.Addr(), "127.0.0.1:0", "127.0.0.1:0") },
		manage: func(t *testing.T, n *Node) (snmp.Exchanger, transport.Client) {
			sig, err := transport.DialTCP(n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return &snmp.UDPExchanger{Addr: n.SNMPAddr()}, sig
		},
	}
}

// host builds and starts a shard host on d; cleanup closes it.
func (d deployment) host(t *testing.T, spec shardhost.Spec) *shardhost.Host {
	t.Helper()
	h, err := shardhost.New(d.clock, d.hostEnv, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	h.Start()
	return h
}

// node builds a worker node named name on d; cleanup closes it.
func (d deployment) node(t *testing.T, name string, spec Spec) *Node {
	t.Helper()
	spec.Machine = sysmon.NewMachine(d.clock, name, 1)
	if spec.Program == "" {
		spec.Program = "none"
		spec.TaskTemplate = func(map[string]string) tuplespace.Entry { return kv{} }
	}
	n, err := New(d.clock, d.nodeEnv(name), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func (d deployment) eventually(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s did not happen within %v", d.name, what, limit)
		}
	}
}

func smallJob() *montecarlo.Job {
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 400
	cfg.SimsPerTask = 100 // 4 subtasks
	cfg.WorkPerSubtask = 5 * time.Millisecond
	cfg.PlanningCostPerTask = time.Millisecond
	cfg.AggregationCostPerResult = 0
	cfg.ShardSpread = true
	return montecarlo.NewJob(cfg)
}

// TestOneScriptTwoEnvironments builds a node against each shape of host —
// classic, sharded, replicated, elastic — over the in-process network and
// over loopback sockets, drives it through its whole life (join, SNMP walk,
// announcement, rule-base Start, a job, Close), and requires the two
// environments to be indistinguishable. Every shape routes through a ring;
// what else the ring gets is the join rule, decided from the host's
// registrations; the rest is the assembly cmd/worker had no test for.
func TestOneScriptTwoEnvironments(t *testing.T) {
	shapes := []struct {
		name string
		host shardhost.Spec
	}{
		{"classic", shardhost.Spec{Shards: 1}},
		{"sharded", shardhost.Spec{Shards: 2}},
		{"replicated", shardhost.Spec{Shards: 1, Replicas: 1, FailoverTimeout: 1500 * time.Millisecond}},
		{"elastic", shardhost.Spec{Shards: 1, Elastic: true, WatchInterval: watch}},
	}
	run := func(t *testing.T, d deployment, host shardhost.Spec) string {
		h := d.host(t, host)
		job := smallJob()
		cs := nodeconfig.NewCodeServer()
		cs.Publish(job.Bundle())
		cs.Bind(h.Server(0))

		before := runtime.NumGoroutine()
		n := d.node(t, "node01", Spec{
			Program:       job.Name(),
			TaskTemplate:  func(map[string]string) tuplespace.Entry { return job.TaskTemplate() },
			WatchInterval: host.WatchInterval,
		})
		var b strings.Builder
		fmt.Fprintf(&b, "ring=%v members=%d watcher=%v\n", n.Router() != nil, len(n.Ring()), n.ring.Watcher != nil)

		ex, sig := d.manage(t, n)
		mgr := snmp.NewManager(Community, ex)
		if err := mgr.Walk(snmp.MustOID("1.3.6.1"), func(vb snmp.Varbind) error {
			fmt.Fprintf(&b, "mib %s\n", vb.OID)
			return nil
		}); err != nil {
			t.Fatalf("%s: walk: %v", d.name, err)
		}
		if vbs, err := mgr.Get(snmp.OIDSysName); err != nil || vbs[0].Value.String() != "node01" {
			t.Fatalf("%s: sysName = %v, %v", d.name, vbs, err)
		}

		announced := func() bool {
			for _, it := range d.reg.Lookup(map[string]string{"type": "worker"}) {
				if it.Name == "node01" && it.Address == n.Addr() && it.Attributes["snmp"] == n.SNMPAddr() {
					return true
				}
			}
			return false
		}
		fmt.Fprintf(&b, "announced=%v\n", announced())

		n.Start()
		if _, err := sig.Call("worker.Signal", &worker.SignalArgs{Signal: rulebase.SignalStart, SentAt: d.clock.Now()}); err != nil {
			t.Fatalf("%s: Start signal: %v", d.name, err)
		}
		m := master.New(master.Config{Clock: d.clock, Space: h.Space(), Machine: sysmon.NewMachine(d.clock, "master", 1), ResultTimeout: 30 * time.Second})
		rm, err := m.RunJob(job)
		if err != nil {
			t.Fatalf("%s: job: %v", d.name, err)
		}
		if price, err := job.Answer(); err != nil || price.Sims != 400 {
			t.Fatalf("%s: answer %+v, %v", d.name, price, err)
		}
		// The counter moves just after the commit that publishes a result.
		d.eventually(t, 3*time.Second, "tasksDone OID reaching the task count", func() bool {
			done, err := mgr.GetInt(snmp.OIDWorkerTasksDone)
			return err == nil && int(done) == rm.Tasks
		})
		state, err := mgr.GetInt(snmp.OIDWorkerState)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "tasks=%d state=%v\n", rm.Tasks, rulebase.State(state))

		_ = mgr.Close()
		_ = sig.Close()
		n.Close()
		fmt.Fprintf(&b, "announced after close=%v\n", announced())
		d.eventually(t, 3*time.Second, "the node's goroutines ending", func() bool {
			return runtime.NumGoroutine() <= before
		})
		return b.String()
	}

	mib := "mib 1.3.6.1.2.1.1.1.0\nmib 1.3.6.1.2.1.1.5.0\nmib 1.3.6.1.2.1.25.3.3.1.2.1\n" +
		"mib 1.3.6.1.4.1.52429.1.1\nmib 1.3.6.1.4.1.52429.1.2\nmib 1.3.6.1.4.1.52429.1.3\n"
	want := map[string]string{
		"classic":    "ring=true members=1 watcher=false\n",
		"sharded":    "ring=true members=2 watcher=false\n",
		"replicated": "ring=true members=1 watcher=false\n",
		"elastic":    "ring=true members=1 watcher=true\n",
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			scripts := map[string]string{}
			// Each environment is built inside its own subtest: the script
			// counts goroutines, and a listener built early for the other
			// environment would still be starting its own.
			for name, deploy := range map[string]func(*testing.T) deployment{"inproc": inproc, "tcp": tcp} {
				t.Run(name, func(t *testing.T) { scripts[name] = run(t, deploy(t), shape.host) })
			}
			if scripts["inproc"] != scripts["tcp"] {
				t.Fatalf("the two environments diverged:\n--- inproc\n%s--- tcp\n%s", scripts["inproc"], scripts["tcp"])
			}
			if w := want[shape.name] + mib + "announced=true\ntasks=4 state=Running\nannounced after close=false\n"; scripts["tcp"] != w {
				t.Fatalf("script:\n%s\nwant:\n%s", scripts["tcp"], w)
			}
		})
	}
}

// childKey returns a key that ring member child owns in h's current ring.
func childKey(t *testing.T, h *shardhost.Host, child string) string {
	t.Helper()
	owner := shard.OwnerFunc(h.Router().Topology())
	for i := 0; i < 1000; i++ {
		if k := fmt.Sprintf("k%03d", i); owner(k) == child {
			return k
		}
	}
	t.Fatalf("no key owned by %s", child)
	return ""
}

// TestElasticSingleShardRoutesThroughRing: a worker joined to a single
// unreplicated elastic shard routes through a ring and follows its splits.
// At the parent commit cmd/worker chose the direct proxy for it (one shard,
// no epoch attribute: main.go:158 — established by reading, that code had
// no test), so it had no router and no watcher and an entry migrated to a
// split-born child was invisible to it for good.
func TestElasticSingleShardRoutesThroughRing(t *testing.T) {
	d := tcp(t)
	h := d.host(t, shardhost.Spec{Shards: 1, Elastic: true, WatchInterval: watch})
	n := d.node(t, "node01", Spec{WatchInterval: watch})
	if n.Router() == nil {
		t.Fatal("the worker talks to the elastic shard directly: it can never see a split")
	}
	n.Start()
	ring0, _ := h.RingID(0)
	rep, err := h.Split(ring0)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	key := childKey(t, h, rep.Child)
	if _, err := h.Space().Write(kv{K: key, V: 7}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	// One watch interval of convergence; the drain (2×watch) already ran
	// inside Split.
	e, err := n.Router().Take(kv{K: key}, nil, watch+2*watch)
	if err != nil {
		t.Fatalf("the worker-side handle cannot take an entry the split-born child owns: %v", err)
	}
	if e.(kv).V != 7 {
		t.Fatalf("took %+v", e)
	}
	if got := n.Ring(); len(got) != 2 || got[0] != rep.Child && got[1] != rep.Child {
		t.Fatalf("worker ring = %v, want the split-born %s in it", got, rep.Child)
	}
}

// TestJoinAfterSplitAdoptsTopology: a worker that joins after a split routes
// its first operation to the child — the published topology is adopted at
// join, not at the first watch tick (which this test never reaches). At the
// parent cmd/worker's first adoption was its first tick, 30 s in.
func TestJoinAfterSplitAdoptsTopology(t *testing.T) {
	for _, d := range []deployment{inproc(t), tcp(t)} {
		t.Run(d.name, func(t *testing.T) {
			h := d.host(t, shardhost.Spec{Shards: 1, Elastic: true, WatchInterval: 5 * time.Millisecond})
			ring0, _ := h.RingID(0)
			rep, err := h.Split(ring0)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			key := childKey(t, h, rep.Child)
			if _, err := h.Space().Write(kv{K: key, V: 1}, nil, tuplespace.Forever); err != nil {
				t.Fatal(err)
			}
			n := d.node(t, "late", Spec{WatchInterval: time.Hour})
			if e, err := n.Router().TakeIfExists(kv{K: key}, nil); err != nil || e == nil {
				t.Fatalf("first op after joining missed the child's entry: %v, %v", e, err)
			}
			if got := n.Router().TopoEpoch(); got != 2 {
				t.Fatalf("topology epoch at join = %d, want 2", got)
			}
		})
	}
}

// TestSpecValidate is the table of specs New refuses — what cmd/worker's
// flags are checked against before any socket is bound.
func TestSpecValidate(t *testing.T) {
	ok := Spec{
		Machine: sysmon.NewMachine(vclock.NewReal(), "n", 1), Program: "p",
		TaskTemplate: func(map[string]string) tuplespace.Entry { return kv{} },
	}
	cases := []struct {
		name string
		edit func(*Spec)
		want string // "" = valid
	}{
		{"minimal", func(*Spec) {}, ""},
		{"no machine", func(s *Spec) { s.Machine = nil }, "no machine"},
		{"no program", func(s *Spec) { s.Program = "" }, "no program"},
		{"no template", func(s *Spec) { s.TaskTemplate = nil }, "no task template"},
		{"negative optimeout", func(s *Spec) { s.OpTimeout = -time.Second }, "optimeout must be >= 0"},
		{"negative txn-ttl", func(s *Spec) { s.TxnTTL = -time.Second }, "txn-ttl must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ok
			tc.edit(&s)
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid spec rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if tc.want != "" {
				if _, nerr := New(vclock.NewReal(), Env{}, s); nerr == nil {
					t.Fatal("New accepted a spec Validate rejects")
				}
			}
		})
	}
}
