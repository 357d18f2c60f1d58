package e2e

import (
	"fmt"
	"testing"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/discovery"
	"gospaces/internal/e2e/harness"
	"gospaces/internal/master"
	"gospaces/internal/netmgmt"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/rulebase"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/workerhost"
)

// tcpDeployment is the federation the cmd tools deploy, over loopback
// sockets and built from the code the binaries run: a lookup listener, the
// master's shards (shardhost.New on TCPEnv — cmd/master) with the job's code
// server on shard 0, and worker nodes (workerhost.New on TCPEnv —
// cmd/worker) with their signal endpoints on TCP and SNMP agents on UDP.
type tcpDeployment struct {
	clk    vclock.Clock
	lookup string
	host   *shardhost.Host
	job    master.Job
}

func deployTCP(t *testing.T, spec shardhost.Spec, job master.Job) *tcpDeployment {
	t.Helper()
	clk := vclock.NewReal()
	lookupSrv := transport.NewServer()
	discovery.NewService(discovery.NewRegistry(clk), lookupSrv)
	lookupL, err := transport.ListenTCP("127.0.0.1:0", lookupSrv)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := transport.DialTCP(lookupL.Addr())
	if err != nil {
		t.Fatal(err)
	}
	background := vclock.NewGroup(clk)
	t.Cleanup(func() { background.Wait(); lc.Close(); lookupL.Close() })
	env, err := shardhost.TCPEnv("127.0.0.1:0", discovery.NewClient(lc), background.Go)
	if err != nil {
		t.Fatal(err)
	}
	host, err := shardhost.New(clk, env, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.Close)
	cs := nodeconfig.NewCodeServer()
	cs.Publish(job.Bundle())
	cs.Bind(host.Server(0))
	host.Start()
	return &tcpDeployment{clk: clk, lookup: lookupL.Addr(), host: host, job: job}
}

// node builds one worker node against the deployment, with the client-side
// values of the host's spec — as core does in the simulator. The caller
// starts it.
func (d *tcpDeployment) node(t *testing.T, name string, edit func(*workerhost.Spec)) *workerhost.Node {
	t.Helper()
	hs := d.host.Spec()
	spec := workerhost.Spec{
		Machine:      sysmon.NewMachine(d.clk, name, 1),
		Program:      d.job.Name(),
		TaskTemplate: func(map[string]string) tuplespace.Entry { return d.job.TaskTemplate() },
		TxnTTL:       hs.TxnTTL,
		PollTimeout:  50 * time.Millisecond,
	}
	if edit != nil {
		edit(&spec)
	}
	n, err := workerhost.New(d.clk, workerhost.TCPEnv(d.lookup, "127.0.0.1:0", "127.0.0.1:0"), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// manage registers n with mod the way cmd/netman does: SNMP over UDP,
// signals over TCP.
func (d *tcpDeployment) manage(t *testing.T, mod *netmgmt.Module, n *workerhost.Node) {
	t.Helper()
	sig, err := transport.DialTCP(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sig.Close() })
	mod.Register(n.Name(), &snmp.UDPExchanger{Addr: n.SNMPAddr(), Timeout: time.Second}, sig)
}

// snmpInt GETs one numeric OID from n's agent over UDP.
func snmpInt(t *testing.T, n *workerhost.Node, oid snmp.OID) int64 {
	t.Helper()
	mgr := snmp.NewManager(workerhost.Community, &snmp.UDPExchanger{Addr: n.SNMPAddr(), Timeout: time.Second})
	defer mgr.Close()
	v, err := mgr.GetInt(oid)
	if err != nil {
		t.Fatalf("%s: GET %s: %v", n.Name(), oid, err)
	}
	return v
}

// TestFullDeploymentOverTCPAndUDP stands up the complete federation the
// cmd tools deploy — lookup, master (space + code server), two workers,
// network management — over real localhost sockets, and runs a small
// option-pricing job end to end with rule-base-driven starts.
func TestFullDeploymentOverTCPAndUDP(t *testing.T) {
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 400
	cfg.SimsPerTask = 100 // 4 subtasks
	cfg.WorkPerSubtask = 5 * time.Millisecond
	cfg.PlanningCostPerTask = time.Millisecond
	cfg.AggregationCostPerResult = 0
	job := montecarlo.NewJob(cfg)
	d := deployTCP(t, shardhost.Spec{Shards: 1, TxnTTL: time.Minute}, job)

	// Workers discover the space through the lookup service; network
	// management polls SNMP over UDP and signals over TCP.
	mod := netmgmt.New(netmgmt.Config{Clock: d.clk, PollInterval: 50 * time.Millisecond})
	var nodes []*workerhost.Node
	for i := 0; i < 2; i++ {
		n := d.node(t, fmt.Sprintf("tcp-node%02d", i+1), nil)
		n.Start()
		d.manage(t, mod, n)
		nodes = append(nodes, n)
	}
	go mod.Run()
	defer mod.Shutdown()

	m := master.New(master.Config{Clock: d.clk, Space: d.host.Space(), ResultTimeout: 30 * time.Second})
	rm, err := m.RunJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Tasks != 4 {
		t.Fatalf("tasks = %d", rm.Tasks)
	}
	price, err := job.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if price.Midpoint() <= 0 {
		t.Fatalf("price %+v", price)
	}

	// The rule base started both workers.
	starts := 0
	for _, ev := range mod.Events() {
		if ev.Err == nil && ev.Signal == rulebase.SignalStart {
			starts++
		}
	}
	if starts != 2 {
		t.Fatalf("start signals = %d, want 2", starts)
	}
	// Workers bump their counters just after the commit that publishes
	// the result, so give them a moment to settle. The counters are read
	// the way stock tooling would: SNMP GETs over UDP against the deployed
	// nodes' agents (which did not export them before the nodes were built
	// by workerhost).
	deadline := time.Now().Add(2 * time.Second)
	for {
		done := int64(0)
		for _, n := range nodes {
			done += snmpInt(t, n, snmp.OIDWorkerTasksDone)
		}
		if done == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers completed %d tasks, want 4", done)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, n := range nodes {
		if st := rulebase.State(snmpInt(t, n, snmp.OIDWorkerState)); st != rulebase.StateRunning {
			t.Fatalf("%s: workerState OID = %v, want Running", n.Name(), st)
		}
	}
}

// TestDeploymentWorkerStopsUnderLoadOverUDP checks the rule-base loop over
// real sockets: raising a node's background load pauses/stops its worker.
func TestDeploymentWorkerStopsUnderLoadOverUDP(t *testing.T) {
	d := deployTCP(t, shardhost.Spec{Shards: 1}, montecarlo.NewJob(montecarlo.DefaultJobConfig()))
	// The node is signalled but never started: only the signal endpoint and
	// the agent are under test, and a worker loop computing on a machine
	// this test saturates would crawl.
	var machine *sysmon.Machine
	n := d.node(t, "loaded", func(s *workerhost.Spec) { machine = s.Machine })
	mod := netmgmt.New(netmgmt.Config{Clock: d.clk, PollInterval: 20 * time.Millisecond})
	d.manage(t, mod, n)

	// Round 1: idle → Start.
	mod.PollOnce()
	if st, _ := mod.WorkerState("loaded"); st != rulebase.StateRunning {
		t.Fatalf("state = %v, want Running", st)
	}
	// Round 2: saturate → Stop.
	machine.SetConstSource("user", 95)
	mod.PollOnce()
	if st, _ := mod.WorkerState("loaded"); st != rulebase.StateStopped {
		t.Fatalf("state = %v, want Stopped", st)
	}
	mod.Unregister("loaded")
}

// TestDeploymentFailoverMidJobOverTCP kills shard 0's primary of a
// two-shard replicated TCP deployment while two worker nodes are mid-job.
// The standby promotes itself, every router — the master's and both
// workers' — resolves the promoted registration through the lookup service
// and retargets, and the job completes with the result set equal to the
// task set.
func TestDeploymentFailoverMidJobOverTCP(t *testing.T) {
	const failover = 1500 * time.Millisecond // must exceed the pump's 500 ms heartbeat
	cfg := montecarlo.DefaultJobConfig()
	cfg.TotalSims = 2400
	cfg.SimsPerTask = 100 // 24 subtasks
	cfg.WorkPerSubtask = 120 * time.Millisecond
	cfg.PlanningCostPerTask = time.Millisecond
	cfg.AggregationCostPerResult = 0
	cfg.ShardSpread = true
	job := montecarlo.NewJob(cfg)
	d := deployTCP(t, shardhost.Spec{Shards: 2, Replicas: 1, FailoverTimeout: failover, TxnTTL: 2 * time.Second}, job)
	var nodes []*workerhost.Node
	for i := 0; i < 2; i++ {
		n := d.node(t, fmt.Sprintf("tcp-node%02d", i+1), func(s *workerhost.Spec) {
			s.AutoStart, s.OpTimeout = true, 2*time.Second
		})
		n.Start()
		nodes = append(nodes, n)
	}
	ring0, _ := d.host.RingID(0)
	killed := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond) // planning done, both workers executing
		killed <- d.host.KillPrimary(0)
	}()

	m := master.New(master.Config{
		Clock: d.clk, Space: d.host.Space(), ResultTimeout: 30 * time.Second,
	})
	if _, err := m.RunJob(job); err != nil {
		t.Fatal(err)
	}
	if err := <-killed; err != nil {
		t.Fatalf("kill shard 0 primary: %v", err)
	}
	if err := harness.ExactSims(job, cfg.TotalSims); err != nil {
		t.Fatal(err)
	}
	if got := d.host.Epoch(0); got != 2 {
		t.Fatalf("shard 0 epoch = %d, want 2 (one promotion)", got)
	}
	// A worker retargets when a call to the dead primary fails; its idle
	// scatter takes keep touching every position, so each gets there.
	for _, n := range nodes {
		deadline := time.Now().Add(5 * time.Second)
		for n.Router().Epochs()[ring0] != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: router epochs = %v, want %s at 2", n.Name(), n.Router().Epochs(), ring0)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
