package e2e

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/cluster"
	"gospaces/internal/core"
	"gospaces/internal/discovery"
	"gospaces/internal/e2e/harness"
	"gospaces/internal/faults"
	"gospaces/internal/netmgmt"
	"gospaces/internal/obs"
	"gospaces/internal/rulebase"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"
)

// tcpLookup serves a lookup service on a loopback port, as cmd/lookup does,
// and returns its address and registry.
func tcpLookup(t *testing.T) (string, *discovery.Registry) {
	t.Helper()
	reg := discovery.NewRegistry(vclock.NewReal())
	srv := transport.NewServer()
	discovery.NewService(reg, srv)
	l, err := transport.ListenTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr(), reg
}

// tcpFramework assembles cfg with core.New over core.TCP, under plan (nil:
// none), against a fresh
// loopback lookup service — the deployment cmd/master runs, with cfg's
// worker nodes in the same process. It returns the lookup registry, where
// each node announces its SNMP agent.
func tcpFramework(t *testing.T, plan *faults.Plan, cfg core.Config) (*core.Framework, *discovery.Registry) {
	t.Helper()
	lookup, reg := tcpLookup(t)
	f := newFramework(t, vclock.NewReal(), core.TCP(lookup, "127.0.0.1:0", plan), cfg)
	t.Cleanup(f.Close)
	return f, reg
}

// udpAgent reaches the named node's SNMP agent over UDP at the address its
// lookup registration announces, as cmd/netman does.
func udpAgent(t *testing.T, reg *discovery.Registry, name string) snmp.Exchanger {
	items := reg.Lookup(map[string]string{"type": "worker", "node": name})
	if len(items) != 1 {
		t.Errorf("%s: %d worker registrations, want 1", name, len(items))
		return &snmp.UDPExchanger{}
	}
	return &snmp.UDPExchanger{Addr: items[0].Attributes["snmp"]}
}

// awaitOID polls oid on each agent until want holds for every node's value
// or the framework clock passes a 5 s deadline.
func awaitOID(t *testing.T, f *core.Framework, agents map[string]snmp.Exchanger, oid snmp.OID, want func(map[string]int64) bool) map[string]int64 {
	deadline := f.Clock.Now().Add(5 * time.Second)
	for {
		vals := make(map[string]int64, len(agents))
		for name, ex := range agents {
			v, err := snmp.NewManager(workerhost.Community, ex).GetInt(oid)
			if err != nil {
				t.Errorf("%s: GET %s: %v", name, oid, err)
				return vals
			}
			vals[name] = v
		}
		if want(vals) || f.Clock.Now().After(deadline) {
			return vals
		}
		f.Clock.Sleep(10 * time.Millisecond)
	}
}

// deploymentJob is an option-pricing job of tasks tasks, each work long.
func deploymentJob(tasks int, work time.Duration) montecarlo.JobConfig {
	cfg := montecarlo.DefaultJobConfig()
	cfg.SimsPerTask = 100
	cfg.TotalSims = tasks * cfg.SimsPerTask
	cfg.WorkPerSubtask = work
	cfg.PlanningCostPerTask = time.Millisecond
	cfg.AggregationCostPerResult = 0
	return cfg
}

// TestOneJobTwoNetworks runs one Config — a 4-task job, two worker nodes,
// network management on — through core.New over the in-process network
// and over TCP/UDP sockets, each bare and under a fault plan. Every row must
// aggregate the exact simulation count with one rule-base Start per worker,
// and both nodes' agents must report workerState Running mid-job and four
// tasks done between them, read the way stock tooling reads them (over UDP
// on the socket rows). The plan drops each worker node's first Take from
// each shard, a count the topology alone fixes, so both networks must count
// the same injected drops: one per node on the one shard.
func TestOneJobTwoNetworks(t *testing.T) {
	cfg := core.Config{
		Spec:          shardhost.Spec{Shards: 1, TxnTTL: time.Minute},
		Workers:       cluster.Uniform(2, 1.0),
		Monitoring:    true,
		PollInterval:  50 * time.Millisecond,
		ResultTimeout: 30 * time.Second,
	}
	networks := []struct {
		name string
		// deploy assembles cfg under plan and returns the framework, how to
		// run on its clock, and how to reach a node's SNMP agent.
		deploy func(t *testing.T, plan *faults.Plan) (*core.Framework, func(func()), func(string) snmp.Exchanger)
	}{
		{"inproc", func(t *testing.T, plan *faults.Plan) (*core.Framework, func(func()), func(string) snmp.Exchanger) {
			clk := vclock.NewVirtual(chaosEpoch)
			f := newFramework(t, clk, core.InProc(nil, plan), cfg)
			return f, clk.Run, func(name string) snmp.Exchanger {
				c, err := f.Dial("manager", "node/"+name)
				if err != nil {
					t.Error(err)
				}
				return &snmp.RPCExchanger{C: c}
			}
		}},
		{"tcp", func(t *testing.T, plan *faults.Plan) (*core.Framework, func(func()), func(string) snmp.Exchanger) {
			f, reg := tcpFramework(t, plan, cfg)
			return f, func(fn func()) { fn() }, func(name string) snmp.Exchanger { return udpAgent(t, reg, name) }
		}},
	}
	rows := []struct {
		suffix string
		plan   func() *faults.Plan // nil: no plan
		want   map[string]uint64   // Result.FaultEvents
	}{
		{"", nil, nil},
		{"-faulted", func() *faults.Plan {
			p := faults.NewPlan(1)
			p.DropNthCall("node/*", "", "space.Take", 1)
			return p
		}, map[string]uint64{faults.EventDrop: uint64(len(cfg.Workers))}},
	}
	for _, nw := range networks {
		for _, row := range rows {
			t.Run(nw.name+row.suffix, func(t *testing.T) {
				var plan *faults.Plan
				if row.plan != nil {
					plan = row.plan()
				}
				f, run, agent := nw.deploy(t, plan)
				jc := deploymentJob(4, 200*time.Millisecond)
				job := montecarlo.NewJob(jc)
				var running, done map[string]int64
				script := func(f *core.Framework) {
					agents := map[string]snmp.Exchanger{}
					for _, n := range cfg.Workers {
						agents[n.Name] = agent(n.Name)
					}
					running = awaitOID(t, f, agents, snmp.OIDWorkerState, func(v map[string]int64) bool {
						for _, s := range v {
							if rulebase.State(s) != rulebase.StateRunning {
								return false
							}
						}
						return true
					})
					// Workers bump their counters just after the commit that
					// publishes the result; the agents stay up until the
					// script ends.
					done = awaitOID(t, f, agents, snmp.OIDWorkerTasksDone, func(v map[string]int64) bool {
						return v["node01"]+v["node02"] == 4
					})
				}
				var res core.Result
				var err error
				run(func() { res, err = f.Run(job, script) })
				if err != nil {
					t.Fatal(err)
				}
				if err := harness.ExactSims(job, jc.TotalSims); err != nil {
					t.Fatal(err)
				}
				starts := map[string]int{}
				for _, ev := range res.Events {
					if ev.Err == nil && ev.Signal == rulebase.SignalStart {
						starts[ev.Node]++
					}
				}
				for _, n := range cfg.Workers {
					if starts[n.Name] != 1 {
						t.Errorf("%s: %d rule-base Starts, want 1 (events %+v)", n.Name, starts[n.Name], res.Events)
					}
					if st := rulebase.State(running[n.Name]); st != rulebase.StateRunning {
						t.Errorf("%s: workerState OID = %v mid-job, want Running", n.Name, st)
					}
				}
				if got := done["node01"] + done["node02"]; got != 4 {
					t.Errorf("workerTasksDone over SNMP = %v, want 4 in total", done)
				}
				if !reflect.DeepEqual(res.FaultEvents, row.want) {
					t.Errorf("fault events = %v, want %v", res.FaultEvents, row.want)
				}
			})
		}
	}
}

// TestManagerLinksUnderFaultPlan puts both kinds of link the network
// manager dials in process under a fault plan. A one-way partition from
// "master" to "node/node02" for the whole run cuts the SNMP agent's link:
// every poll of node02 fails on the partition, so node02 is never sent
// Start and completes no task. A dropped first signal to node01 hits the
// signal endpoint's link: node01 is started one round later and does the
// whole job, with nothing lost.
func TestManagerLinksUnderFaultPlan(t *testing.T) {
	plan := faults.NewPlan(1)
	plan.PartitionOneWay("master", "node/node02", 0, 0)
	plan.DropNthCall("master", "node/node01", "worker.Signal", 1)
	clk := vclock.NewVirtual(chaosEpoch)
	f := newFramework(t, clk, core.InProc(nil, plan), core.Config{
		Spec:          shardhost.Spec{Shards: 1, TxnTTL: time.Minute},
		Workers:       cluster.Uniform(2, 1.0),
		Monitoring:    true,
		PollInterval:  50 * time.Millisecond,
		ResultTimeout: 30 * time.Second,
	})
	jc := deploymentJob(4, 200*time.Millisecond)
	job := montecarlo.NewJob(jc)
	var res core.Result
	var err error
	clk.Run(func() { res, err = f.Run(job, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.ExactSims(job, jc.TotalSims); err != nil {
		t.Fatal(err)
	}
	if got := res.WorkerStats["node02"].TasksDone; got != 0 {
		t.Errorf("node02 completed %d tasks behind the partition, want 0", got)
	}
	if got := res.WorkerStats["node01"].TasksDone; got != 4 {
		t.Errorf("node01 completed %d tasks, want all 4", got)
	}
	// injected returns the fault an event's error carries, or nil.
	injected := func(ev netmgmt.Event) *faults.Error {
		var fe *faults.Error
		if !errors.As(ev.Err, &fe) {
			return nil
		}
		return fe
	}
	polls, drops, starts := 0, 0, 0
	for _, ev := range res.Events {
		fe := injected(ev)
		switch {
		case ev.Node == "node02":
			if fe == nil || fe.Kind != "partitioned" || fe.Method != "snmp.Exchange" || ev.Signal != rulebase.SignalNone {
				t.Errorf("node02 event %+v: want a poll cut by the partition", ev)
			}
			polls++
		case fe != nil:
			if fe.Kind != "drop" || fe.Method != "worker.Signal" || drops > 0 || starts > 0 {
				t.Errorf("node01 event %+v: want one dropped signal before its Start", ev)
			}
			drops++
		case ev.Err == nil && ev.Signal == rulebase.SignalStart:
			starts++
		}
	}
	if polls == 0 || drops != 1 || starts != 1 {
		t.Errorf("%d cut polls of node02, %d dropped and %d delivered Starts to node01; want > 0, 1, 1 (events %+v)", polls, drops, starts, res.Events)
	}
}

// TestDeploymentWorkerStopsUnderLoadOverUDP checks the rule-base loop over
// real sockets: raising a node's background load to 95 % stops its worker,
// and clearing it restarts the worker, which then finishes the job.
func TestDeploymentWorkerStopsUnderLoadOverUDP(t *testing.T) {
	f, reg := tcpFramework(t, nil, core.Config{
		Spec:          shardhost.Spec{Shards: 1},
		Workers:       []cluster.NodeSpec{{Name: "loaded", Speed: 1}},
		Monitoring:    true,
		PollInterval:  20 * time.Millisecond,
		ResultTimeout: 30 * time.Second,
	})
	jc := deploymentJob(8, 50*time.Millisecond)
	job := montecarlo.NewJob(jc)
	state := func(want rulebase.State) bool {
		agents := map[string]snmp.Exchanger{"loaded": udpAgent(t, reg, "loaded")}
		got := awaitOID(t, f, agents, snmp.OIDWorkerState, func(v map[string]int64) bool {
			return rulebase.State(v["loaded"]) == want
		})
		return rulebase.State(got["loaded"]) == want
	}
	script := func(f *core.Framework) {
		// Idle → Start; saturate → Stop; idle again → Restart.
		if !state(rulebase.StateRunning) {
			t.Error("worker never started")
			return
		}
		f.Cluster.Nodes[0].Machine.SetConstSource("user", 95)
		if !state(rulebase.StateStopped) {
			t.Error("worker not stopped under 95 % load")
		}
		f.Cluster.Nodes[0].Machine.ClearSource("user")
	}
	res, err := f.Run(job, script)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.ExactSims(job, jc.TotalSims); err != nil {
		t.Fatal(err)
	}
	var signals []rulebase.Signal
	for _, ev := range res.Events {
		if ev.Err != nil {
			t.Fatalf("signal %v failed: %v", ev.Signal, ev.Err)
		}
		if ev.Signal == rulebase.SignalStop && ev.Load < 95 {
			t.Fatalf("Stop at load %v, want it under the 95 %% load", ev.Load)
		}
		signals = append(signals, ev.Signal)
	}
	want := []rulebase.Signal{rulebase.SignalStart, rulebase.SignalStop, rulebase.SignalRestart}
	if len(signals) != len(want) {
		t.Fatalf("signals = %v, want %v", signals, want)
	}
	for i := range want {
		if signals[i] != want[i] {
			t.Fatalf("signals = %v, want %v", signals, want)
		}
	}
}

// TestDeploymentFailoverMidJobOverTCP kills shard 0's primary of a
// two-shard replicated TCP deployment while two worker nodes are mid-job.
// The standby promotes itself, every router — the master's and both
// workers' — resolves the promoted registration through the lookup service
// and retargets, and the job completes with the result set equal to the
// task set.
func TestDeploymentFailoverMidJobOverTCP(t *testing.T) {
	const failover = 1500 * time.Millisecond // must exceed the pump's 500 ms heartbeat
	jc := deploymentJob(24, 120*time.Millisecond)
	jc.ShardSpread = true
	job := montecarlo.NewJob(jc)
	o := obs.New(1)
	f, _ := tcpFramework(t, nil, core.Config{
		Spec: shardhost.Spec{
			Shards: 2, Replicas: 1, FailoverTimeout: failover, TxnTTL: 2 * time.Second, Obs: o,
		},
		Workers:       cluster.Uniform(2, 1.0),
		OpTimeout:     2 * time.Second,
		ResultTimeout: 30 * time.Second,
	})
	pos0 := ring0(f)
	killed := make(chan error, 1)
	script := func(f *core.Framework) {
		f.Clock.Sleep(300 * time.Millisecond) // planning done, both workers executing
		killed <- f.Host.KillPrimary(0)
	}
	if _, err := f.Run(job, script); err != nil {
		t.Fatal(err)
	}
	if err := <-killed; err != nil {
		t.Fatalf("kill shard 0 primary: %v", err)
	}
	if err := harness.ExactSims(job, jc.TotalSims); err != nil {
		t.Fatal(err)
	}
	if got := f.Host.Epoch(0); got != 2 {
		t.Fatalf("shard 0 epoch = %d, want 2 (one promotion)", got)
	}
	// A worker's router retargets when a call to the dead primary fails;
	// the tasks left on shard 0 after the promotion reach every worker
	// through it.
	for _, n := range []string{"node01", "node02"} {
		if !retargeted(o.Fl().Events(n), pos0, 2) {
			t.Fatalf("%s: no retarget of %s to epoch 2 in its flight events %+v", n, pos0, o.Fl().Events(n))
		}
	}
}

// retargeted reports whether events hold a router retarget of ring position
// id onto epoch.
func retargeted(events []obs.FlightEvent, id string, epoch uint64) bool {
	for _, ev := range events {
		if ev.Kind == obs.EventRetarget && ev.Shard == id && ev.Epoch == epoch {
			return true
		}
	}
	return false
}
