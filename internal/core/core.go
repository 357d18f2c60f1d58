// Package core is the public facade of the adaptive cluster-computing
// framework — the paper's primary contribution. A Framework wires the
// three modules of Figure 3 over the substrates:
//
//   - the master module (package master) hosts the JavaSpaces service and
//     the code server, registers them with the Jini-style lookup service,
//     plans tasks and aggregates results;
//   - the worker modules (package worker) are thin runtimes on each
//     cluster node, configured remotely through the nodeconfig engine,
//     pulling tasks from the space under transactions;
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
	"gospaces/internal/replica"
	"gospaces/internal/rulebase"
	"gospaces/internal/shard"
	"gospaces/internal/shardhost"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
	"gospaces/internal/worker"
)

// Job is re-exported so applications depend only on core.
type Job = master.Job

// Config tunes a Framework.
type Config struct {
	// Model is the network cost model. Default transport.LAN2001().
	Model *transport.Model
	// Workers are the cluster's worker nodes.
	Workers []cluster.NodeSpec
	// Monitoring enables the network management module: workers then
	// start only when the rule base signals Start, and back off under
	// load. Without it, workers auto-start (scalability experiments).
	Monitoring bool
	// Thresholds configures the rule base (zero value = paper defaults).
	Thresholds rulebase.Thresholds
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
	// TxnTTL leases each worker's per-task transaction. Default 2 min.
	TxnTTL time.Duration
	// PollTimeout bounds each worker's blocking Take. Default 250 ms.
	PollTimeout time.Duration
	// ResultTimeout bounds the master's wait per result. Default 5 min.
	ResultTimeout time.Duration
	// Shards is how many space servers the master hosts (default 1).
	// With K > 1 entries partition across the shards by their
	// `space:"index"` key via a consistent-hash router; the master and
	// every worker route through identical rings. Shard 0 shares the
	// master's main server with the code server, so Shards == 1 is
	// exactly the classic single-server deployment.
	Shards int
	// SpaceOpCost models the server CPU one space operation consumes:
	// each shard server admits requests through a FIFO service gate of
	// this cost, so a saturated server queues callers. Zero disables the
	// gate. The sharded scalability experiments use it to reproduce —
	// and then shift — the single-server saturation knee.
	SpaceOpCost time.Duration
	// Faults, if set, is a fault-injection plan installed on the
	// cluster's in-process network: every RPC between named endpoints
	// (master, workers as "node/<name>", shards, the lookup service)
	// routes through it. New binds the plan to the framework's clock, so
	// scripted windows are offsets from construction time. See
	// internal/faults.
	Faults *faults.Plan
	// DedupResults makes the master's collection idempotent against
	// redelivered result writes (see master.Config.DedupResults). Chaos
	// scenarios that duplicate deliveries turn this on.
	DedupResults bool
	// DataDir, when set, makes every hosted shard durable — JavaSpaces'
	// persistent (Outrigger) mode. Shard i keeps a segmented WAL plus
	// snapshots under <DataDir>/shard<i>; on construction each shard
	// recovers its previous contents before serving, and RestartShard
	// crash-restarts one shard from its log mid-run. The master's handle
	// is always a shard.Router when DataDir is set (pass-through for one
	// shard) so a recovered shard can be re-admitted in place.
	DataDir string
	// FsyncPolicy selects WAL sync behaviour (default wal.FsyncAlways).
	FsyncPolicy wal.FsyncPolicy
	// StrictDurability makes journal failures surface as space operation
	// errors: a write or take that cannot be logged fails loudly instead
	// of acknowledging lost data.
	StrictDurability bool
	// Replicas gives every hosted shard a hot standby: the primary's
	// journal records stream to a backup space on its own server
	// ("<shard>.backup"), which promotes itself — incremented epoch,
	// re-registration under the shard's ring position — when the primary
	// goes silent. Only 0 (off) and 1 are supported; higher values are
	// treated as 1. Replication forces a shard.Router on the master and
	// every worker (pass-through for one shard) so a ring position can be
	// retargeted onto its promoted backup in place.
	Replicas int
	// ReplAck selects when a replicated mutation acknowledges: sync (the
	// default — after the backup confirmed, so failover loses nothing
	// acknowledged) or async (immediately, bounded loss window).
	ReplAck replica.AckMode
	// FailoverTimeout is how long a backup tolerates heartbeat silence
	// before promoting itself; it is also the primary's lookup-lease TTL.
	// Default 2 s.
	FailoverTimeout time.Duration
	// OpTimeout bounds each remote space RPC a worker issues (semantic
	// blocking time excluded — a Take with a 5 s wait gets OpTimeout on
	// top of it). A stuck server then surfaces as space.ErrOpTimeout,
	// which the shard router treats as failover-worthy. Zero disables the
	// deadline. With OpTimeout set the proxy also stamps each RPC frame
	// with its absolute deadline, so shard servers drop queued work the
	// client has already abandoned (admission control's expired check).
	OpTimeout time.Duration
	// MaxInflight bounds each hosted shard's admitted-but-unfinished ops:
	// past the bound new calls fast-fail with tuplespace.ErrOverloaded
	// instead of queueing without limit. It also arms the shard's brownout
	// controller, which sheds the lowest-priority op classes first under
	// sustained saturation. 0 = unlimited (no admission bound).
	MaxInflight int
	// MaxWaiters bounds each hosted shard's blocked Take/Read waiters —
	// the parked-caller table behind blocking lookups. Past the bound a
	// blocking call fast-fails with tuplespace.ErrOverloaded instead of
	// parking. 0 = unlimited.
	MaxWaiters int
	// RetryBudget caps the total retry volume of the master's and each
	// worker's router with a token bucket of this size, refilled by a
	// fraction of observed successes: when a widespread failure empties
	// the bucket, retries are denied and the last error surfaces, so
	// failure recovery cannot amplify offered load into a retry storm.
	// 0 = unlimited retries (the old behavior).
	RetryBudget int
	// Breakers arms a per-shard circuit breaker in the master's and every
	// worker's router: consecutive hard failures at one ring position trip
	// it open and calls there fast-fail (shard.ErrBreakerOpen) until a
	// half-open probe succeeds — one dead or hung shard then costs a
	// scatter round one fast error instead of a full timeout.
	Breakers bool
	// ExactlyOnce upgrades every client-originated mutation from
	// at-most-once to exactly-once: the master's and each worker's router
	// mints an idempotency token per mutation, the shard servers memoize
	// each tokened outcome in a bounded dedup table (rebuilt from the WAL
	// on crash-restart, streamed to hot standbys, shipped with migrating
	// buckets on a split), and ambiguous failures — an RPC that timed out
	// with its effect unknown — are retried with the same token instead
	// of surfacing. Forces a shard.Router on the master and every worker
	// (pass-through for one shard) so the retry machinery is in path.
	ExactlyOnce bool
	// Elastic enables the resharding machinery: every hosted node's
	// journal chain carries a migration tap, the master publishes a ring
	// topology record that workers watch, and SplitShard/MergeShards move
	// key ranges between shards online. Forces a shard.Router on the
	// master and every worker (pass-through for one shard). Implied by
	// AutoShard.
	Elastic bool
	// AutoShard additionally runs the load-driven rebalancer during Run:
	// a controller samples per-shard op rates every ReshardInterval and
	// splits a shard whose EWMA stays above SplitThreshold (merging
	// split-born shards back when they cool below MergeThreshold).
	AutoShard bool
	// SplitThreshold and MergeThreshold are op-rate EWMAs in ops/sec
	// (defaults 500 and 10; see rebalance.ControllerConfig).
	SplitThreshold float64
	MergeThreshold float64
	// ReshardInterval is the rebalancer's sampling tick. Default 1 s.
	ReshardInterval time.Duration
	// ReshardHysteresis is how many consecutive ticks a threshold must be
	// breached before the rebalancer acts (default 3).
	ReshardHysteresis int
	// ReshardCooldown is the minimum pause between reshard actions
	// (default 30 s).
	ReshardCooldown time.Duration
	// MaxShards caps automatic splits (default 8).
	MaxShards int
	// ReshardDrain is the post-cutover lame-duck window during which the
	// old owner keeps sweeping straggler writes across to the new one.
	// Default 2×WatchInterval — it must outlast worker ring convergence.
	ReshardDrain time.Duration
	// WatchInterval is how often each worker polls the lookup service for
	// a newer ring topology. Default 500 ms.
	WatchInterval time.Duration
	// Obs, if set, enables the observability layer end to end: causal
	// tracing of every task (plan → take → execute → aggregate), latency
	// histograms on the master's space handle, each shard server, the WAL
	// and every worker, live framework gauges, and an SNMP MIB on the
	// master's agent. Nil keeps every hot path a no-op.
	Obs *obs.Obs
}

// Framework is an assembled deployment: cluster, lookup service, the
// hosted shard set (internal/shardhost), code server and master module.
type Framework struct {
	Clock      vclock.Clock
	Cluster    *cluster.Cluster
	Lookup     *discovery.Registry
	CodeServer *nodeconfig.CodeServer
	Master     *master.Master

	// Space is the master's operating handle: shard 0 directly for the
	// classic single in-memory shard, a shard.Router otherwise (gated
	// either way when SpaceOpCost is set).
	Space space.Space
	// Counters are the hosted shards' counter families — Durability, Repl,
	// Reshard, Retries, Overload: each is nil while the feature it counts is
	// off, Retries is Repl when both are on, and with Config.Obs set all of
	// them are the Obs counter set.
	shardhost.Counters
	// MIB is the master's management information base when Config.Obs is
	// set: the framework gauges exported as SNMP objects, served by an
	// agent bound on the master's server (the same substrate the network
	// management module polls workers through).
	MIB *snmp.MIB

	cfg  Config
	host *shardhost.Host
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
	// Durability is the wal:* / journal:errors counter snapshot when
	// Config.DataDir was set.
	Durability map[string]uint64
	// Replication is the repl:* counter snapshot when Config.Replicas was
	// set: records shipped, promotions, fenced requests, resyncs, and the
	// failover count across the master's and every worker's router.
	Replication map[string]uint64
	// Resharding is the reshard:* counter snapshot when Config.Elastic was
	// set: splits, merges, entries migrated and evicted, aborted forks.
	Resharding map[string]uint64
	// Retries is the retry:* / dedup:* counter snapshot when
	// Config.ExactlyOnce was set: retry attempts, ambiguous outcomes
	// replayed, budgets exhausted, memo dedup hits and evictions.
	Retries map[string]uint64
	// Overload is the admit:* / shed:* (plus, without repl or retry
	// counters, breaker:* and retry budget) counter snapshot when any
	// overload-protection knob was set.
	Overload map[string]uint64
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
	if cfg.TxnTTL <= 0 {
		cfg.TxnTTL = 2 * time.Minute
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 250 * time.Millisecond
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas > 1 {
		cfg.Replicas = 1
	}
	if cfg.AutoShard {
		cfg.Elastic = true
	}
	if cfg.WatchInterval <= 0 {
		cfg.WatchInterval = 500 * time.Millisecond
	}
	if cfg.ReshardDrain <= 0 {
		cfg.ReshardDrain = 2 * cfg.WatchInterval
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
		cfg:        cfg,
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
	host, err := shardhost.New(clock, env, cfg.hostSpec())
	if err != nil {
		// New has no error return (it predates durability); an unopenable
		// data directory is a deployment misconfiguration.
		panic(fmt.Sprintf("core: %v", err))
	}
	f.host = host
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
		// Sweeping expired worker transactions lets tasks held by
		// crashed workers reappear instead of stalling collection.
		Sweeper:       host.Sweeper(),
		SweepInterval: cfg.TxnTTL / 4,
		DedupResults:  cfg.DedupResults,
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

// hostSpec is the shard-host half of cfg (defaults already applied).
func (cfg Config) hostSpec() shardhost.Spec {
	return shardhost.Spec{
		Shards:            cfg.Shards,
		SpaceOpCost:       cfg.SpaceOpCost,
		DataDir:           cfg.DataDir,
		FsyncPolicy:       cfg.FsyncPolicy,
		StrictDurability:  cfg.StrictDurability,
		Replicas:          cfg.Replicas,
		ReplAck:           cfg.ReplAck,
		FailoverTimeout:   cfg.FailoverTimeout,
		MaxInflight:       cfg.MaxInflight,
		MaxWaiters:        cfg.MaxWaiters,
		RetryBudget:       cfg.RetryBudget,
		Breakers:          cfg.Breakers,
		ExactlyOnce:       cfg.ExactlyOnce,
		Elastic:           cfg.Elastic,
		AutoShard:         cfg.AutoShard,
		SplitThreshold:    cfg.SplitThreshold,
		MergeThreshold:    cfg.MergeThreshold,
		ReshardInterval:   cfg.ReshardInterval,
		ReshardHysteresis: cfg.ReshardHysteresis,
		ReshardCooldown:   cfg.ReshardCooldown,
		MaxShards:         cfg.MaxShards,
		ReshardDrain:      cfg.ReshardDrain,
		TxnTTL:            cfg.TxnTTL,
		Obs:               cfg.Obs,
	}
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

// Shards returns every hosted shard's serving space, split-born children
// included, by shard index.
func (f *Framework) Shards() []*space.Local { return f.host.Shards() }

// Durables pairs each shard with its serving node's persistence controller
// (nil entries when the node is memory-only).
func (f *Framework) Durables() []*space.Durable { return f.host.Durables() }

// RestartShard crash-restarts hosted shard i from its WAL (see
// shardhost.Host.Restart). Requires Config.DataDir.
func (f *Framework) RestartShard(i int) (space.RecoveryInfo, error) { return f.host.Restart(i) }

// Close shuts down the hosted shards and their durable logs. Runs are
// unaffected if it is never called (tests rely on process teardown), but
// durable deployments should close so final appends reach disk.
func (f *Framework) Close() { f.host.Close() }

// Run executes job on the framework's cluster. If script is non-nil it
// runs concurrently (experiment scripts toggle load simulators with it).
// Run must execute as a process on the framework's clock — inside
// vclock.Virtual.Run for virtual time, or any goroutine for real time.
func (f *Framework) Run(job Job, script func(*Framework)) (Result, error) {
	f.CodeServer.Publish(job.Bundle())

	// Build one worker per node, each discovering the space through the
	// lookup service exactly as a Jini client would.
	workers := make([]*worker.Worker, 0, len(f.Cluster.Nodes))
	engine := rulebase.NewEngine(f.cfg.Thresholds)
	mod := netmgmt.New(netmgmt.Config{
		Clock:        f.Clock,
		Engine:       engine,
		PollInterval: f.cfg.PollInterval,
		Community:    f.Cluster.Community,
	})
	var watchers []*sysmon.Watcher
	var ringWatchers []*shard.Watcher
	for _, node := range f.Cluster.Nodes {
		w, rw, err := f.buildWorker(node, job)
		if err != nil {
			return Result{}, err
		}
		workers = append(workers, w)
		if rw != nil {
			ringWatchers = append(ringWatchers, rw)
		}
		if !f.cfg.Monitoring {
			w.AutoStart()
			continue
		}
		mod.Register(node.Name,
			&snmp.RPCExchanger{C: f.Cluster.Net.DialAs(f.Cluster.MasterAddr, node.Addr)},
			f.Cluster.Net.DialAs(f.Cluster.MasterAddr, node.Addr))
		if f.cfg.TrapDriven {
			watchers = append(watchers, f.buildTrapWatcher(node, engine, mod))
		}
	}

	if reg := f.cfg.Obs.Reg(); reg != nil {
		ws := workers
		reg.RegisterGauge(metrics.GaugeWorkersRunning, func() int64 {
			var n int64
			for _, w := range ws {
				if w.State() == rulebase.StateRunning {
					n++
				}
			}
			return n
		})
	}

	group := vclock.NewGroup(f.Clock)
	f.runMu.Lock()
	f.runGroup = group
	f.runMu.Unlock()
	// Replication pumps and, with AutoShard, the load-driven rebalancer.
	f.host.Start()
	for _, w := range workers {
		w := w
		group.Go(w.Run)
	}
	if f.cfg.Monitoring {
		group.Go(mod.Run)
	}
	for _, watch := range watchers {
		watch := watch
		group.Go(watch.Run)
	}
	// Elastic mode: each worker's ring watcher follows published topology
	// records.
	for _, rw := range ringWatchers {
		rw := rw
		group.Go(rw.Run)
	}
	if script != nil {
		group.Go(func() { script(f) })
	}

	rm, runErr := f.Master.RunJob(job)

	for _, w := range workers {
		w.Shutdown()
	}
	mod.Shutdown()
	for _, watch := range watchers {
		watch.Stop()
	}
	for _, rw := range ringWatchers {
		rw.Stop()
	}
	f.runMu.Lock()
	f.runGroup = nil
	f.runMu.Unlock()
	f.host.Stop()
	group.Wait()

	res := Result{
		Metrics:     rm,
		WorkerStats: make(map[string]worker.Stats, len(workers)),
		SignalLogs:  make(map[string][]worker.SignalRecord, len(workers)),
		Events:      mod.Events(),
	}
	if f.cfg.Faults != nil {
		res.FaultEvents = f.cfg.Faults.Counters().Snapshot()
	}
	if f.Durability != nil {
		res.Durability = f.Durability.Snapshot()
	}
	if f.Repl != nil {
		res.Replication = f.Repl.Snapshot()
	}
	if f.Reshard != nil {
		res.Resharding = f.Reshard.Snapshot()
	}
	if f.Retries != nil {
		res.Retries = f.Retries.Snapshot()
	}
	if f.Overload != nil {
		res.Overload = f.Overload.Snapshot()
	}
	if f.cfg.Obs != nil {
		res.ObsSummary = f.cfg.Obs.Reg().Summary()
	}
	for i, w := range workers {
		name := f.Cluster.Nodes[i].Name
		st := w.Stats()
		res.WorkerStats[name] = st
		res.SignalLogs[name] = w.Signals()
		if wt := st.WorkerTime(); wt > res.MaxWorkerTime {
			res.MaxWorkerTime = wt
		}
	}
	return res, runErr
}

// buildWorker assembles the worker module for one node. In elastic mode it
// also returns the node's ring watcher, which Run drives so the worker's
// router follows topology changes (split-born shards joining, merged ones
// leaving) published after startup.
func (f *Framework) buildWorker(node *cluster.Node, job Job) (*worker.Worker, *shard.Watcher, error) {
	// Jini-style discovery: find the space service(s) by attribute
	// lookup. One registration is the classic deployment and the worker
	// talks straight to that proxy; several mean a sharded space, and the
	// worker routes through the same consistent-hash ring as the master.
	// Every dial is tagged with the node's own address so an installed
	// fault plan can apply per-endpoint rules (crashes, partitions) to
	// this worker's traffic. Discovery retries with backoff: a lookup
	// service inside a scripted crash-restart window heals within a few
	// attempts instead of failing the whole deployment.
	lc := discovery.NewClient(f.Cluster.Net.DialAs(node.Addr, discovery.WellKnownAddress))
	tmpl := map[string]string{"type": "javaspace"}
	dial := func(addr string) (space.Space, error) {
		p := space.NewProxy(f.Cluster.Net.DialAs(node.Addr, addr))
		return p.WithOpTimeout(f.Clock, f.cfg.OpTimeout), nil
	}
	var shards []shard.Shard
	// The shared default dial policy, widened for discovery: a lookup
	// service inside a crash-restart window needs more headroom than a
	// plain connection race.
	retry := transport.DefaultPolicy()
	retry.Clock = f.Clock
	retry.Attempts = 6
	retry.Initial = 250 * time.Millisecond
	retry.Max = 4 * time.Second
	err := retry.Do(func() error {
		var derr error
		shards, derr = shard.Discover(lc, tmpl, dial)
		return derr
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: discovering space: %w", node.Name, err)
	}
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("core: %s: discovering space: no javaspace service registered", node.Name)
	}
	var sp space.Space
	var ringWatcher *shard.Watcher
	if len(shards) == 1 && f.cfg.Replicas == 0 && !f.cfg.Elastic && !f.cfg.ExactlyOnce {
		sp = shards[0].Space
	} else {
		// A router even for one replicated or elastic shard: failover needs
		// a ring position that can be retargeted onto the promoted backup,
		// and resharding needs a ring whose membership can change — both
		// resolved through the lookup service (highest epoch claiming the
		// ring position wins).
		a := shard.Assembly{
			Clock: f.Clock, Seed: node.Name, ExactlyOnce: f.cfg.ExactlyOnce, Obs: f.cfg.Obs,
			Counters: f.host.RingCounters(), RetryBudget: f.cfg.RetryBudget, Breakers: f.cfg.Breakers,
		}
		if f.cfg.Replicas > 0 || f.cfg.Elastic {
			a.Failover = shard.Resolver(lc, tmpl, dial)
		}
		router, rerr := shard.Assemble(a, shards)
		if rerr != nil {
			return nil, nil, fmt.Errorf("core: %s: shard router: %w", node.Name, rerr)
		}
		if f.cfg.Elastic {
			// Adopt the published topology now rather than waiting out the
			// first watch tick: a worker that joins mid-run must not route
			// one request over pre-reshard default placements.
			if items, lerr := lc.Lookup(map[string]string{"type": shard.TopoType}); lerr == nil {
				if t, ok := shard.BestTopology(items); ok {
					if _, aerr := router.ApplyTopology(t, shard.Resolver(lc, tmpl, dial)); aerr != nil {
						return nil, nil, fmt.Errorf("core: %s: adopt topology: %w", node.Name, aerr)
					}
				}
			}
			ringWatcher = shard.NewWatcher(lc, f.Clock, router, tmpl, dial, f.cfg.WatchInterval)
		}
		sp = router
	}
	// The code server lives on shard 0's server (the master's address).
	engine := nodeconfig.NewEngine(nodeconfig.ExecContext{
		Clock:   f.Clock,
		Machine: node.Machine,
		Node:    node.Name,
	}, f.Cluster.Net.DialAs(node.Addr, shards[0].ID))

	w := worker.New(worker.Config{
		Node:         node.Name,
		Clock:        f.Clock,
		Machine:      node.Machine,
		Space:        sp,
		Engine:       engine,
		Program:      job.Name(),
		TaskTemplate: job.TaskTemplate(),
		TxnTTL:       f.cfg.TxnTTL,
		PollTimeout:  f.cfg.PollTimeout,
		Obs:          f.cfg.Obs,
	})
	w.Bind(node.Server)
	// Export the worker's progress through the node's SNMP agent.
	node.MIB.Register(snmp.OIDWorkerTasksDone, func() snmp.Value {
		return snmp.Counter32(uint32(w.Stats().TasksDone))
	})
	node.MIB.Register(snmp.OIDWorkerState, func() snmp.Value {
		return snmp.Integer(int64(w.State()))
	})
	f.host.Flight(node.Name, obs.FlightEvent{Kind: obs.EventNodeStart, Detail: "worker"})
	return w, ringWatcher, nil
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
	sender := snmp.NewTrapSender(f.Cluster.Community, snmp.TrapSinkFunc(func(pkt []byte) error {
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
