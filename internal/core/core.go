// Package core is the public facade of the adaptive cluster-computing
// framework — the paper's primary contribution. A Framework wires the
// three modules of Figure 3 over the substrates:
//
//   - the master module (package master) hosts the JavaSpaces service and
//     the code server, registers them with the Jini-style lookup service,
//     plans tasks and aggregates results;
//   - the worker modules (package worker) are thin runtimes on each
//     cluster node, configured remotely through the nodeconfig engine,
//     pulling tasks from the space under transactions — each assembled
//     into a node by package workerhost, as cmd/worker's is (DESIGN §15);
//   - the network management module (package netmgmt) polls each node's
//     SNMP agent and drives workers through the rule-base protocol so
//     cycle stealing stays non-intrusive.
//
// A Framework runs on either clock: the experiment harness uses
// vclock.Virtual for deterministic simulated-cluster runs; the cmd tools
// and examples use the real clock.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"gospaces/internal/cluster"
	"gospaces/internal/discovery"
	"gospaces/internal/faults"
	"gospaces/internal/master"
	"gospaces/internal/metrics"
	"gospaces/internal/netmgmt"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/rulebase"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/worker"
	"gospaces/internal/workerhost"
)

// Job is re-exported so applications depend only on core.
type Job = master.Job

// Config tunes a Framework: the hosted shard set and the deployment-wide
// client knobs (the embedded shardhost.Spec, documented there — the same
// struct cmd/master fills from flags), plus what only the simulator has: a
// modeled network, a simulated cluster, the network management module and a
// fault plan.
type Config struct {
	shardhost.Spec

	// Model is the network cost model, the shard servers' modeled per-op
	// CPU (Model.SpaceOp) included. Default transport.LAN2001().
	Model *transport.Model
	// Workers are the cluster's worker nodes.
	Workers []cluster.NodeSpec
	// Monitoring enables the network management module: workers then
	// start only when the rule base signals Start, and back off under
	// load. Without it, workers auto-start (scalability experiments).
	Monitoring bool
	// PollInterval is the SNMP monitoring period. Default 1 s.
	PollInterval time.Duration
	// TrapDriven additionally runs a load watcher on every node that
	// fires an SNMP trap when the load crosses a rule-base band, letting
	// the network manager react immediately instead of waiting out the
	// poll interval. Requires Monitoring.
	TrapDriven bool
	// TrapInterval is the node watcher's sampling period.
	// Default PollInterval/10.
	TrapInterval time.Duration
	// ResultTimeout bounds the master's wait per result. Default 5 min.
	ResultTimeout time.Duration
	// Faults, if set, is a fault-injection plan installed on the
	// cluster's in-process network: every RPC between named endpoints
	// (master, workers as "node/<name>", shards, the lookup service)
	// routes through it. New binds the plan to the framework's clock, so
	// scripted windows are offsets from construction time. See
	// internal/faults.
	Faults *faults.Plan
	// OpTimeout bounds each remote space RPC a worker issues (semantic
	// blocking time excluded — a Take with a 5 s wait gets OpTimeout on
	// top of it). A stuck server then surfaces as space.ErrOpTimeout,
	// which the shard router treats as failover-worthy, and the deadline
	// rides each RPC frame so shard servers drop queued work the client
	// has already abandoned. Zero disables the deadline.
	OpTimeout time.Duration
}

// Framework is an assembled deployment: cluster, lookup service, the
// hosted shard set (internal/shardhost), code server and master module.
type Framework struct {
	Clock      vclock.Clock
	Cluster    *cluster.Cluster
	Lookup     *discovery.Registry
	CodeServer *nodeconfig.CodeServer
	Master     *master.Master

	// Space is the master's operating handle: a shard.Router over the
	// hosted shards, a one-member ring for the classic single shard (its
	// shards gated when Model.SpaceOp is set).
	Space space.Space
	// Counters is the host's counter set (shardhost.Host.Counters — the
	// Obs counter set when Config.Obs is set), which every worker's router
	// counts into too.
	Counters *metrics.Counters
	// MIB is the master's management information base when Config.Obs is
	// set: the framework gauges exported as SNMP objects, served by an
	// agent bound on the master's server (the same substrate the network
	// management module polls workers through).
	MIB *snmp.MIB
	// Host is the hosted shard set — the same shardhost.Host cmd/master
	// runs. Scripts and tests drive it directly: Split, Merge, KillPrimary,
	// Rejoin, Restart, and Health for a snapshot of every shard.
	Host *shardhost.Host

	cfg Config
	// runGroup is the active Run's process group; background processes the
	// host spawns (replication pumps, the rebalancer) join it.
	runMu    sync.Mutex
	runGroup *vclock.Group
}

// Result gathers everything a run produced.
type Result struct {
	Metrics master.RunMetrics
	// MaxWorkerTime is the maximum per-worker computation time (first
	// task access to final result write) — the paper's Max Worker Time.
	MaxWorkerTime time.Duration
	// WorkerStats maps node name to its worker's final stats.
	WorkerStats map[string]worker.Stats
	// SignalLogs maps node name to the control signals it received.
	SignalLogs map[string][]worker.SignalRecord
	// Events is the network management module's signal log (empty when
	// monitoring is disabled).
	Events []netmgmt.Event
	// FaultEvents is the injected-fault event counts when Config.Faults
	// was set (keys are the faults.Event* constants).
	FaultEvents map[string]uint64
	// Counters is the snapshot of Framework.Counters: wal:* and
	// journal:errors (durable shards), repl:* (replicated: promotions,
	// fenced requests, resyncs, and failovers across the master's and every
	// worker's router), reshard:* (elastic), retry:* / dedup:* / breaker:*,
	// and admit:* / shed:*. A feature that was off has no keys.
	Counters map[string]uint64
	// ObsSummary is the per-stage tail-latency table (p50/p90/p99/max of
	// every non-empty histogram) when Config.Obs was set.
	ObsSummary []metrics.StageSummary
}

// New assembles a Framework on clock.
func New(clock vclock.Clock, cfg Config) *Framework {
	model := transport.LAN2001()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}

	clus := cluster.New(clock, model, cfg.Workers)
	if cfg.Faults != nil {
		cfg.Faults.Bind(clock)
		clus.Net.Intercept(cfg.Faults.Interceptor())
	}

	f := &Framework{
		Clock:      clock,
		Cluster:    clus,
		Lookup:     discovery.NewRegistry(clock),
		CodeServer: nodeconfig.NewCodeServer(),
	}

	// The lookup service listens at the well-known discovery address.
	lookupSrv := transport.NewServer()
	discovery.NewService(f.Lookup, lookupSrv)
	clus.Net.Listen(discovery.WellKnownAddress, lookupSrv)

	// The master hosts the JavaSpaces service — one server per shard — and
	// joins the lookup federation. Shard 0 listens at the master's address,
	// shards i > 0 at "<master>.shard<i>", standbys at "<shard>.backup".
	env := shardhost.InProcEnv(clus.Net, clus.MasterAddr, f.Lookup)
	env.Spawn = f.spawn
	if plan := cfg.Faults; plan != nil {
		// WAL writes route through the fault plan under the node's disk
		// endpoint, so chaos scripts can fail specific disk writes.
		env.WrapWriter = func(addr string) func(io.Writer) io.Writer {
			ep := faults.DiskEndpoint(addr)
			return func(w io.Writer) io.Writer { return plan.WrapWriter(ep, w) }
		}
	}
	host, err := shardhost.New(clock, env, cfg.Spec)
	if err != nil {
		// New has no error return (it predates durability); an invalid spec
		// or an unopenable data directory is a deployment misconfiguration.
		panic(fmt.Sprintf("core: %v", err))
	}
	// From here on the spec is the host's, defaults filled in: the master
	// and the workers are built from the values the shards run with.
	cfg.Spec = host.Spec()
	f.cfg, f.Host = cfg, host
	f.Space, f.Counters = host.Space(), host.Counters
	// The code server shares shard 0's server, preserving the classic
	// single-server deployment when Shards == 1.
	clus.MasterServer = host.Server(0)
	f.CodeServer.Bind(clus.MasterServer)

	f.Master = master.New(master.Config{
		Clock:         clock,
		Space:         f.Space,
		Machine:       clus.MasterMachine,
		ResultTimeout: cfg.ResultTimeout,
		Obs:           cfg.Obs,
	})

	if reg := cfg.Obs.Reg(); reg != nil {
		// Framework gauges: every surface (/metrics, SNMP, ObsSummary)
		// reads these same registrations.
		reg.RegisterGauge(metrics.GaugeTasksPending, f.Master.PendingTasks)
		reg.RegisterGauge(metrics.GaugeTasksInFlight, f.Master.InFlight)
		reg.RegisterGauge(metrics.GaugeTasksPlanned, f.Master.TasksPlanned)
		reg.RegisterGauge(metrics.GaugeResultsCollected, f.Master.ResultsCollected)
		// The master answers SNMP GETs for the framework subtree on its
		// own server — the same management substrate the network
		// management module uses towards workers, now pointing back at
		// the master.
		f.MIB = snmp.NewMIB()
		obs.ExportMIB(f.MIB, cfg.Obs, cfg.Shards)
		snmp.NewAgent(clus.Community, f.MIB).Bind(clus.MasterServer)
	}
	host.Flight("master", obs.FlightEvent{
		Kind:   obs.EventNodeStart,
		Detail: fmt.Sprintf("%d shards, %d workers", cfg.Shards, len(cfg.Workers)),
	})
	return f
}

// spawn runs a host background process on the active Run's clock group.
// With no Run active the process simply does not start — sync-mode
// replication still works (each mutation flushes inline); only background
// heartbeats and lease renewals need the pumps, and those only matter
// while a job runs.
func (f *Framework) spawn(fn func()) {
	f.runMu.Lock()
	g := f.runGroup
	f.runMu.Unlock()
	if g != nil {
		g.Go(fn)
	}
}

// Close shuts down the hosted shards and their durable logs. Runs are
// unaffected if it is never called (tests rely on process teardown), but
// durable deployments should close so final appends reach disk.
func (f *Framework) Close() { f.Host.Close() }

// Run executes job on the framework's cluster. If script is non-nil it
// runs concurrently (experiment scripts toggle load simulators with it).
// Run must execute as a process on the framework's clock — inside
// vclock.Virtual.Run for virtual time, or any goroutine for real time.
func (f *Framework) Run(job Job, script func(*Framework)) (Result, error) {
	f.CodeServer.Publish(job.Bundle())

	group := vclock.NewGroup(f.Clock)
	f.runMu.Lock()
	f.runGroup = group
	f.runMu.Unlock()
	// Replication pumps and, with AutoShard, the load-driven rebalancer run
	// before any worker looks for the space: a worker's discovery retries
	// through a lookup outage, and until the pumps run nothing renews a
	// replicated primary's registration, whose lease is FailoverTimeout.
	f.Host.Start()
	stopHost := func() {
		f.runMu.Lock()
		f.runGroup = nil
		f.runMu.Unlock()
		f.Host.Stop()
		group.Wait()
	}

	// One worker node per cluster node, each discovering the space through
	// the lookup service exactly as a Jini client would (internal/workerhost
	// — the assembly cmd/worker runs over TCP). The network management
	// module and its trap watchers are the manager's side, wired here.
	nodes := make([]*workerhost.Node, 0, len(f.Cluster.Nodes))
	closeNodes := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	engine := rulebase.NewEngine(rulebase.DefaultThresholds())
	mod := netmgmt.New(netmgmt.Config{
		Clock:        f.Clock,
		Engine:       engine,
		PollInterval: f.cfg.PollInterval,
		Community:    workerhost.Community,
	})
	var watchers []*sysmon.Watcher
	for _, node := range f.Cluster.Nodes {
		n, err := workerhost.New(f.Clock, workerhost.InProcEnv(f.Cluster.Net, node.Addr), workerhost.Spec{
			Machine:       node.Machine,
			Program:       job.Name(),
			TaskTemplate:  func(map[string]string) tuplespace.Entry { return job.TaskTemplate() },
			TxnTTL:        f.cfg.TxnTTL,
			OpTimeout:     f.cfg.OpTimeout,
			WatchInterval: f.cfg.WatchInterval,
			AutoStart:     !f.cfg.Monitoring,
			Obs:           f.cfg.Obs,
			Counters:      f.Counters,
		})
		if err != nil {
			closeNodes()
			stopHost()
			return Result{}, fmt.Errorf("core: %w", err)
		}
		nodes = append(nodes, n)
		if !f.cfg.Monitoring {
			continue
		}
		mod.Register(node.Name,
			&snmp.RPCExchanger{C: f.Cluster.Net.DialAs(f.Cluster.MasterAddr, n.SNMPAddr())},
			f.Cluster.Net.DialAs(f.Cluster.MasterAddr, n.Addr()))
		if f.cfg.TrapDriven {
			watchers = append(watchers, f.buildTrapWatcher(node, engine, mod))
		}
	}

	if reg := f.cfg.Obs.Reg(); reg != nil {
		reg.RegisterGauge(metrics.GaugeWorkersRunning, func() int64 {
			var running int64
			for _, n := range nodes {
				if n.Worker().State() == rulebase.StateRunning {
					running++
				}
			}
			return running
		})
	}

	for _, n := range nodes {
		n.Start()
	}
	if f.cfg.Monitoring {
		group.Go(mod.Run)
	}
	for _, watch := range watchers {
		group.Go(watch.Run)
	}
	if script != nil {
		group.Go(func() { script(f) })
	}

	rm, runErr := f.Master.RunJob(job)

	for _, n := range nodes {
		n.Stop()
	}
	mod.Shutdown()
	for _, watch := range watchers {
		watch.Stop()
	}
	stopHost()
	closeNodes()

	res := Result{
		Metrics:     rm,
		WorkerStats: make(map[string]worker.Stats, len(nodes)),
		SignalLogs:  make(map[string][]worker.SignalRecord, len(nodes)),
		Events:      mod.Events(),
	}
	if f.cfg.Faults != nil {
		res.FaultEvents = f.cfg.Faults.Counters().Snapshot()
	}
	res.Counters = f.Counters.Snapshot()
	if f.cfg.Obs != nil {
		res.ObsSummary = f.cfg.Obs.Reg().Summary()
	}
	for _, n := range nodes {
		w := n.Worker()
		st := w.Stats()
		res.WorkerStats[n.Name()] = st
		res.SignalLogs[n.Name()] = w.Signals()
		if wt := st.WorkerTime(); wt > res.MaxWorkerTime {
			res.MaxWorkerTime = wt
		}
	}
	return res, runErr
}

// buildTrapWatcher wires a node-side load watcher that fires an SNMP
// load-band trap to the network manager whenever the node's background
// load crosses a rule-base band.
func (f *Framework) buildTrapWatcher(node *cluster.Node, engine *rulebase.Engine, mod *netmgmt.Module) *sysmon.Watcher {
	interval := f.cfg.TrapInterval
	if interval <= 0 {
		interval = f.cfg.PollInterval / 10
	}
	start := f.Clock.Now()
	sender := snmp.NewTrapSender(workerhost.Community, snmp.TrapSinkFunc(func(pkt []byte) error {
		_, err := mod.HandleTrap(node.Name, pkt)
		return err
	}))
	return sysmon.NewWatcher(f.Clock, node.Machine, interval, engine.Band, func(load float64) {
		uptime := snmp.TimeTicks(f.Clock.Since(start) / (10 * time.Millisecond))
		_ = sender.Send(uptime, snmp.OIDLoadBandTrap,
			snmp.Varbind{OID: snmp.OIDBackgroundLoad, Value: snmp.Integer(int64(load + 0.5))})
	})
}

// Machine returns the named node's machine (nil if unknown) — convenience
// for experiment scripts.
func (f *Framework) Machine(name string) *sysmon.Machine {
	if n := f.Cluster.Node(name); n != nil {
		return n.Machine
	}
	return nil
}
