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
// Config says what runs and Net says where: a modeled in-process network
// (InProc, on either clock) or TCP/UDP sockets (TCP, as cmd/master runs).
// New assembles the deployment once for both (DESIGN §18).
package core

import (
	"fmt"
	"io"
	"net"
	"strings"
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

// Config says what a Framework runs: the hosted shard set and the
// deployment-wide client knobs (the embedded shardhost.Spec, documented
// there — the same struct cmd/master fills from flags), the worker nodes
// run in this process, and the network management module.
type Config struct {
	shardhost.Spec

	// Workers are the worker nodes the framework runs in this process.
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
	// OpTimeout bounds each remote space RPC a worker issues (semantic
	// blocking time excluded — a Take with a 5 s wait gets OpTimeout on
	// top of it). A stuck server then surfaces as space.ErrOpTimeout,
	// which the shard router treats as failover-worthy, and the deadline
	// rides each RPC frame so shard servers drop queued work the client
	// has already abandoned. Zero disables the deadline.
	OpTimeout time.Duration
}

// Net says where a Framework runs: the network its lookup service, shards,
// worker nodes and network manager are on. InProc and TCP build one.
type Net func(clock vclock.Clock) (*links, error)

// links is an opened Net: how the shard host, each worker node and the
// network manager reach the rest of the deployment.
type links struct {
	shards shardhost.Env
	node   func(name string) workerhost.Env
	// manager is where the network manager finds the nodes and how it
	// reaches them.
	manager    netmgmt.Env
	background *vclock.Group // when set, runs every host process; see spawn
	faults     *faults.Plan
	release    func()
}

// inProcMaster is shard 0's address on the in-process network, and where a
// fault plan sees the network manager's calls leave from on either network.
const inProcMaster = "master"

// InProc runs the deployment on an in-process network of cost model model
// (nil: transport.LAN2001()): the lookup service at discovery.WellKnownAddress,
// shard 0 at "master", worker nodes at "node/<name>". plan, if set, goes on
// every client the deployment dials and every WAL writer it opens, bound to
// the clock here, so scripted windows are offsets from construction time
// (attach, internal/faults).
func InProc(model *transport.Model, plan *faults.Plan) Net {
	return func(clock vclock.Clock) (*links, error) {
		m := transport.LAN2001()
		if model != nil {
			m = *model
		}
		nw := transport.NewNetwork(clock, m)
		reg := discovery.NewRegistry(clock)
		lookupSrv := transport.NewServer()
		discovery.NewService(reg, lookupSrv)
		nw.Listen(discovery.WellKnownAddress, lookupSrv)
		l := &links{
			shards:  shardhost.InProcEnv(nw, inProcMaster, reg),
			node:    func(name string) workerhost.Env { return workerhost.InProcEnv(nw, "node/"+name, reg) },
			manager: netmgmt.InProcEnv(nw, reg),
			release: func() {},
		}
		l.attach(plan, clock)
		return l, nil
	}
}

// TCP runs the deployment over sockets against the lookup service at
// lookupAddr: shard 0 at listenAddr, every other shard node and each worker
// node's signal endpoint (TCP) and SNMP agent (UDP) on an ephemeral port of
// its host. Host processes run from New to Close, so shard leases are
// renewed before and between runs. plan, if set, is bound to the clock and
// attached as InProc attaches it; it sees shards by their host:port, and
// neither the host's lookup client nor the manager's SNMP, which is UDP.
func TCP(lookupAddr, listenAddr string, plan *faults.Plan) Net {
	return func(clock vclock.Clock) (*links, error) {
		lc, err := transport.DialTCP(lookupAddr)
		if err != nil {
			return nil, fmt.Errorf("dial lookup: %w", err)
		}
		lookup := discovery.NewClient(lc)
		env, err := shardhost.TCPEnv(listenAddr, lookup)
		if err != nil {
			lc.Close()
			return nil, err
		}
		host, _, _ := net.SplitHostPort(listenAddr) // TCPEnv parsed it
		ephemeral := net.JoinHostPort(host, "0")
		l := &links{
			shards:     env,
			node:       func(string) workerhost.Env { return workerhost.TCPEnv(lookupAddr, ephemeral, ephemeral) },
			manager:    netmgmt.TCPEnv(lookup),
			background: vclock.NewGroup(clock),
			release:    func() { lc.Close() },
		}
		l.attach(plan, clock)
		return l, nil
	}
}

// attach binds plan to clock and puts it, before the first dial, on every
// client l's processes dial — the shard host's as calls from the dialing
// node, worker node <name>'s from "node/<name>", the network manager's from
// "master" — and on every WAL writer the host opens, as the disk endpoint
// of the writing node. A nil plan leaves l as it is.
func (l *links) attach(plan *faults.Plan, clock vclock.Clock) {
	if plan == nil {
		return
	}
	plan.Bind(clock)
	l.faults = plan
	// wrap(from, to) puts the client a dial from → to returned under plan.
	wrap := func(from, to string) func(transport.Client, error) (transport.Client, error) {
		return func(c transport.Client, err error) (transport.Client, error) {
			if err != nil {
				return nil, err
			}
			return plan.WrapClient(from, to, c), nil
		}
	}
	shardDial, node, managerDial := l.shards.Dial, l.node, l.manager.Dial
	l.shards.Dial = func(from, to string) (transport.Client, error) { return wrap(from, to)(shardDial(from, to)) }
	l.shards.WrapWriter = func(addr string) func(io.Writer) io.Writer {
		return func(w io.Writer) io.Writer { return plan.WrapWriter(faults.DiskEndpoint(addr), w) }
	}
	l.node = func(name string) workerhost.Env {
		env := node(name)
		dial := env.Dial
		env.Dial = func(to string) (transport.Client, error) { return wrap("node/"+name, to)(dial(to)) }
		return env
	}
	l.manager.Dial = func(to string) (transport.Client, error) { return wrap(inProcMaster, to)(managerDial(to)) }
}

// Framework is an assembled deployment: cluster hardware, the hosted shard
// set (internal/shardhost), code server and master module.
type Framework struct {
	Clock   vclock.Clock
	Cluster *cluster.Cluster
	Master  *master.Master

	// Space is the master's operating handle: a shard.Router over the
	// hosted shards, a one-member ring for the classic single shard (its
	// shards gated when the in-process model's SpaceOp is set).
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
	// Host is the hosted shard set — the same shardhost.Host on either
	// network. Scripts and tests drive it directly: Split, Merge,
	// KillPrimary, Rejoin, Restart, and Health for a snapshot of every shard.
	Host *shardhost.Host

	cfg        Config
	links      *links
	codeServer *nodeconfig.CodeServer
	// runGroup is the active Run's process group; in process, background
	// processes the host spawns (replication pumps, the rebalancer) join it.
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
	// FaultEvents is the injected-fault event counts when the Net had a
	// fault plan (keys are the faults.Event* constants).
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
	// PerTask is what one task cost, counted, when Config.Obs was set.
	PerTask *PerTask
}

// PerTask is the per-task ledger of a run: every figure is a total over
// the run divided by the tasks the master planned. It reads only counters
// and histogram counts the deployment keeps anyway, so the counts cost
// nothing to take; a figure of a feature that was off reads 0.
type PerTask struct {
	// MasterOps and WorkerOps are the space ops the master's handle and
	// the worker nodes' issued, by space.Kind name ("write", "take", …);
	// a kind a side never issued is absent from its map.
	MasterOps, WorkerOps map[string]float64
	// ServedCalls is the space RPCs the shard servers served.
	ServedCalls float64
	// WALRecords and WALFsyncs are the durable shards' log appends and
	// fsyncs.
	WALRecords, WALFsyncs float64
	// ShippedRecords and ShipBatches are the journal records the primaries
	// shipped to their standbys and the batches they went in.
	ShippedRecords, ShipBatches float64
	// MemoEvictions is the memo rows the shards' bounds evicted.
	MemoEvictions float64
}

// SpaceOps returns the ops the master and the workers issued together.
func (p *PerTask) SpaceOps() float64 {
	var n float64
	for _, ops := range []map[string]float64{p.MasterOps, p.WorkerOps} {
		for _, v := range ops {
			n += v
		}
	}
	return n
}

// perTask reads the ledger of a run of tasks tasks off its counters and
// registry.
func perTask(tasks int, counters map[string]uint64, reg *metrics.Registry) *PerTask {
	if reg == nil || tasks <= 0 {
		return nil
	}
	per := func(n uint64) float64 { return float64(n) / float64(tasks) }
	p := &PerTask{
		MasterOps:      map[string]float64{},
		WorkerOps:      map[string]float64{},
		WALRecords:     per(counters[metrics.CounterWALRecords]),
		ShippedRecords: per(counters[metrics.CounterReplShipped]),
		MemoEvictions:  per(counters[metrics.CounterDedupMemoEvicted]),
	}
	hists := reg.Histograms()
	for name, h := range hists {
		n := h.Count()
		switch {
		case n == 0:
		case strings.HasPrefix(name, metrics.HistWorkerSpacePrefix):
			p.WorkerOps[strings.TrimPrefix(name, metrics.HistWorkerSpacePrefix)] = per(n)
		case strings.HasPrefix(name, metrics.HistSpacePrefix):
			p.MasterOps[strings.TrimPrefix(name, metrics.HistSpacePrefix)] = per(n)
		}
	}
	for i := 0; hists[metrics.HistShardServe(i)] != nil; i++ {
		p.ServedCalls += per(hists[metrics.HistShardServe(i)].Count())
	}
	p.WALFsyncs = per(hists[metrics.HistWALFsync].Count())
	p.ShipBatches = per(hists[metrics.HistReplShip].Count())
	return p
}

// New assembles a Framework on clock over net: it opens the network, hosts
// the shard set, binds the code server (and, with Config.Obs, the
// framework MIB's agent) on shard 0's server and builds the master module.
func New(clock vclock.Clock, net Net, cfg Config) (*Framework, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	l, err := net(clock)
	if err != nil {
		return nil, err
	}
	f := &Framework{
		Clock:      clock,
		Cluster:    cluster.New(clock, cfg.Workers),
		links:      l,
		codeServer: nodeconfig.NewCodeServer(),
	}
	l.shards.Spawn = f.spawn
	host, err := shardhost.New(clock, l.shards, cfg.Spec)
	if err != nil {
		l.release()
		return nil, err
	}
	// From here on the spec is the host's, defaults filled in: the master
	// and the workers are built from the values the shards run with.
	cfg.Spec = host.Spec()
	f.cfg, f.Host = cfg, host
	f.Space, f.Counters = host.Space(), host.Counters
	// The code server shares shard 0's server, preserving the classic
	// single-server deployment when Shards == 1.
	f.codeServer.Bind(host.Server(0))

	f.Master = master.New(master.Config{
		Clock:         clock,
		Space:         f.Space,
		Machine:       f.Cluster.MasterMachine,
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
		snmp.NewAgent(workerhost.Community, f.MIB).Bind(host.Server(0))
	}
	host.Flight("master", obs.FlightEvent{
		Kind:   obs.EventNodeStart,
		Detail: fmt.Sprintf("%d shards, %d workers", cfg.Shards, len(cfg.Workers)),
	})
	return f, nil
}

// spawn runs a host background process: over TCP until Close; in process
// on the active Run's clock group, and not at all with no Run active —
// sync-mode replication flushes inline, and heartbeats and lease renewals
// only matter while a job runs.
func (f *Framework) spawn(fn func()) {
	g := f.links.background
	if g == nil {
		f.runMu.Lock()
		g = f.runGroup
		f.runMu.Unlock()
	}
	if g != nil {
		g.Go(fn)
	}
}

// Dial connects endpoint from to the node at to over the framework's
// network, for a script's or a test's own clients; a fault plan sees the
// calls leave from from.
func (f *Framework) Dial(from, to string) (transport.Client, error) {
	return f.links.shards.Dial(from, to)
}

// Close shuts down the hosted shards and their durable logs, waits for the
// host's processes and hangs up on the lookup service. In-process runs may
// skip it; durable deployments should close so final appends reach disk.
func (f *Framework) Close() {
	f.Host.Close()
	if g := f.links.background; g != nil {
		g.Wait()
	}
	f.links.release()
}

// Run executes job on the framework's cluster. If script is non-nil it
// runs concurrently (experiment scripts toggle load simulators with it).
// Run must execute as a process on the framework's clock — inside
// vclock.Virtual.Run for virtual time, or any goroutine for real time.
func (f *Framework) Run(job Job, script func(*Framework)) (Result, error) {
	f.codeServer.Publish(job.Bundle())

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
	// the lookup service exactly as a Jini client would and announcing
	// itself there (internal/workerhost — the assembly cmd/worker runs). The
	// network management module finds the nodes in the lookup service; it
	// and its trap watchers are the manager's side, wired here.
	nodes := make([]*workerhost.Node, 0, len(f.Cluster.Nodes))
	closeNodes := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	engine := rulebase.NewEngine(rulebase.DefaultThresholds())
	mod := netmgmt.New(netmgmt.Config{
		Clock:        f.Clock,
		Env:          f.links.manager,
		Engine:       engine,
		PollInterval: f.cfg.PollInterval,
	})
	var watchers []*sysmon.Watcher
	for _, node := range f.Cluster.Nodes {
		n, err := workerhost.New(f.Clock, f.links.node(node.Name), workerhost.Spec{
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
		if f.cfg.Monitoring && f.cfg.TrapDriven {
			watchers = append(watchers, f.buildTrapWatcher(node, engine, mod))
		}
	}

	// Without nodes of its own (cmd/master) the gauge would read a
	// constant 0 however many workers run; it is not registered.
	if reg := f.cfg.Obs.Reg(); reg != nil && len(nodes) > 0 {
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
		group.Go(func() { mod.Run(nil) })
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
	if plan := f.links.faults; plan != nil {
		res.FaultEvents = plan.Counters().Snapshot()
	}
	res.Counters = f.Counters.Snapshot()
	if f.cfg.Obs != nil {
		res.ObsSummary = f.cfg.Obs.Reg().Summary()
		res.PerTask = perTask(rm.Tasks, res.Counters, f.cfg.Obs.Reg())
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
