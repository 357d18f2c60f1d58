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
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
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
	"gospaces/internal/rebalance"
	"gospaces/internal/replica"
	"gospaces/internal/rulebase"
	"gospaces/internal/shard"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/sysmon"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
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

// Framework is an assembled deployment: cluster, lookup service, space
// service, code server and master module.
type Framework struct {
	Clock      vclock.Clock
	Cluster    *cluster.Cluster
	Lookup     *discovery.Registry
	Local      *space.Local // shard 0 (the only shard when Shards == 1)
	CodeServer *nodeconfig.CodeServer
	Master     *master.Master

	// Shards holds every hosted space shard; len(Shards) == cfg.Shards.
	Shards []*space.Local
	// Space is the master's operating handle: shard 0 directly for a
	// single-shard deployment, a shard.Router otherwise (gated either way
	// when SpaceOpCost is set).
	Space space.Space
	// Durables pairs each shard with its persistence controller when
	// Config.DataDir is set (nil entries otherwise).
	Durables []*space.Durable
	// Durability carries the wal:* and journal:errors counters when
	// Config.DataDir is set.
	Durability *metrics.Counters
	// Repl carries the repl:* counters (records shipped, promotions,
	// fenced requests, router failovers) when Config.Replicas is set.
	Repl *metrics.Counters
	// Reshard carries the reshard:* counters (splits, merges, entries
	// migrated/evicted, aborted migrations) when Config.Elastic is set.
	Reshard *metrics.Counters
	// Retries carries the retry:* / dedup:* counters when
	// Config.ExactlyOnce is set (shared with Repl when replication is also
	// on, so one snapshot shows failovers next to the retries they caused).
	Retries *metrics.Counters
	// Overload carries the admit:* / shed:* counters (and, when no repl or
	// retry counter set exists, the breaker:* and retry budget counters of
	// the master's router) when any overload-protection knob — MaxInflight,
	// MaxWaiters, RetryBudget, Breakers — is set.
	Overload *metrics.Counters
	// MIB is the master's management information base when Config.Obs is
	// set: the framework gauges exported as SNMP objects, served by an
	// agent bound on the master's server (the same substrate the network
	// management module polls workers through).
	MIB *snmp.MIB

	cfg        Config
	router     *shard.Router
	shardSrvs  []*transport.Server
	shardAddrs []string
	gates      []*transport.ServiceGate
	// services holds each hosted shard's serving space.Service — the
	// admission controller owner. Promotions and restarts swap entries so
	// healthReport always reads the serving node's vitals.
	services []*space.Service
	sweeps   []*swapSweeper
	taps     []*rebalance.Tap // per seed shard, elastic only
	repls    []*replShard
	replMu   sync.Mutex
	runGroup *vclock.Group
	sweeper  *growSweeper
	reshard  *reshardState // elastic only (see elastic.go)
}

// swapSweeper lets the master's sweeper (captured once at master.New)
// follow a shard restart: RestartShard swaps in the recovered shard's
// transaction manager.
type swapSweeper struct {
	mu sync.Mutex
	s  interface{ Sweep() int }
}

// Sweep implements the master's sweeper contract.
func (w *swapSweeper) Sweep() int {
	w.mu.Lock()
	s := w.s
	w.mu.Unlock()
	return s.Sweep()
}

func (w *swapSweeper) swap(s interface{ Sweep() int }) {
	w.mu.Lock()
	w.s = s
	w.mu.Unlock()
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
	if cfg.FailoverTimeout <= 0 {
		cfg.FailoverTimeout = 2 * time.Second
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
	if cfg.ReshardInterval <= 0 {
		cfg.ReshardInterval = time.Second
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

	// The master hosts the JavaSpaces service — one server per shard —
	// plus the code server, and joins the lookup federation. Shard 0
	// shares the master's main server with the code server, preserving
	// the classic single-server deployment when Shards == 1; shards
	// i > 0 get their own listeners at "<master>.shard<i>". Each shard
	// registers with its index so clients can rebuild the same ring.
	if cfg.DataDir != "" {
		f.Durability = metrics.NewCounters()
	}
	if cfg.Replicas > 0 {
		f.Repl = metrics.NewCounters()
		f.repls = make([]*replShard, cfg.Shards)
	}
	if cfg.Elastic {
		f.Reshard = metrics.NewCounters()
		f.taps = make([]*rebalance.Tap, cfg.Shards)
	}
	if cfg.ExactlyOnce {
		if f.Repl != nil {
			f.Retries = f.Repl
		} else {
			f.Retries = metrics.NewCounters()
		}
	}
	if cfg.MaxInflight > 0 || cfg.MaxWaiters > 0 || cfg.RetryBudget > 0 || cfg.Breakers {
		f.Overload = metrics.NewCounters()
	}
	shards := make([]shard.Shard, cfg.Shards)
	f.sweeper = &growSweeper{}
	f.sweeps = make([]*swapSweeper, cfg.Shards)
	f.shardSrvs = make([]*transport.Server, cfg.Shards)
	f.shardAddrs = make([]string, cfg.Shards)
	f.gates = make([]*transport.ServiceGate, cfg.Shards)
	f.services = make([]*space.Service, cfg.Shards)
	f.Durables = make([]*space.Durable, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		srv, addr := clus.MasterServer, clus.MasterAddr
		if i > 0 {
			srv = transport.NewServer()
			addr = fmt.Sprintf("%s.shard%d", clus.MasterAddr, i)
			clus.Net.Listen(addr, srv)
		}
		f.shardSrvs[i], f.shardAddrs[i] = srv, addr
		var rs *replShard
		var psw *replica.SwitchSink
		if cfg.Replicas > 0 {
			rs = &replShard{idx: i, ringID: addr}
			f.repls[i] = rs
			psw = replica.NewSwitchSink()
		}
		// The journal chain, innermost first: space journal → WAL (when
		// durable) → migration tap (when elastic) → replication switch
		// sink. The tap stays a pass-through until a reshard turns it on.
		var sink tuplespace.RecordSink
		if psw != nil {
			sink = psw
		}
		var tap *rebalance.Tap
		if cfg.Elastic {
			tap = rebalance.NewTap(sink)
			f.taps[i] = tap
			sink = tap
		}
		var l *space.Local
		if cfg.DataDir != "" {
			dopts := f.durableOptions(i)
			dopts.Tee = sink
			var d *space.Durable
			var err error
			l, d, err = space.NewLocalDurable(clock, dopts)
			if err != nil {
				// New has no error return (it predates durability); an
				// unopenable data directory is a deployment misconfiguration
				// on par with the unreachable router error below.
				panic(fmt.Sprintf("core: durable shard %d: %v", i, err))
			}
			f.Durables[i] = d
		} else {
			l = space.NewLocal(clock)
			if sink != nil {
				if err := l.TS.AttachJournal(tuplespace.NewJournalSink(sink)); err != nil {
					panic(fmt.Sprintf("core: shard %d journal: %v", i, err))
				}
			}
		}
		l.TS.SetMemoCounters(f.Retries)
		l.TS.SetFlightSink(f.memoFlightSink(addr, addr))
		if cfg.MaxWaiters > 0 {
			l.TS.SetMaxWaiters(cfg.MaxWaiters)
		}
		f.Shards = append(f.Shards, l)
		f.sweeps[i] = &swapSweeper{s: l.Mgr}
		f.sweeper.add(f.sweeps[i])
		svc := space.NewService(l, srv)
		f.services[i] = svc
		var p *replica.Primary
		if rs != nil {
			// Directly after the service handlers so the replication
			// middleware sits innermost: a mutation confirms on the backup
			// before the gate or obs layers see the reply.
			p = f.setupReplica(rs, l, srv, psw, tap, f.Durables[i])
		}
		var handle space.Space = l
		var gate *transport.ServiceGate
		if cfg.SpaceOpCost > 0 {
			// Remote callers pay the gate inside the admission controller
			// (configured below); the master pays it through the gated
			// wrapper, so both compete for the same modeled server CPU. The
			// code server bypasses the space handlers and stays ungated.
			gate = transport.NewServiceGate(clock, cfg.SpaceOpCost)
			handle = gated(l, gate)
			f.gates[i] = gate
		}
		f.configureAdmission(svc, addr, gate)
		if reg := cfg.Obs.Reg(); reg != nil {
			// Outermost wrap (after the gate), so the shard's serve
			// histogram sees gate queueing plus service time — what remote
			// callers actually experience at this server.
			srv.WrapPrefix("space.", obs.ServerMiddleware(clock, reg.Histogram(metrics.HistShardServe(i))))
		}
		if rs != nil {
			handle = p.Wrap(handle)
			rs.origHandle = handle
			shards[i] = shard.Shard{ID: addr, Space: handle, Epoch: 1}
		} else {
			shards[i] = shard.Shard{ID: addr, Space: handle}
		}
		f.registerShard(i, f.Durables[i], false)
	}
	f.Local = f.Shards[0]
	f.CodeServer.Bind(clus.MasterServer)

	if cfg.Shards == 1 && cfg.DataDir == "" && cfg.Replicas == 0 && !cfg.Elastic && !cfg.ExactlyOnce {
		f.Space = shards[0].Space
	} else {
		// A router even for a single durable or replicated shard:
		// RestartShard re-admits a recovered space through Router.Replace,
		// and a promotion retargets the ring position through
		// Router.Retarget — both of which the master's captured handle then
		// observes.
		ropts := shard.Options{Clock: clock, Seed: "master", ExactlyOnce: cfg.ExactlyOnce, Obs: cfg.Obs}
		if cfg.Replicas > 0 {
			ropts.Counters = f.Repl
			ropts.Failover = f.localResolver()
		}
		if ropts.Counters == nil {
			ropts.Counters = f.Retries
		}
		if ropts.Counters == nil {
			ropts.Counters = f.Overload
		}
		if cfg.RetryBudget > 0 {
			ropts.Budget = shard.NewRetryBudget(cfg.RetryBudget, 0)
		}
		if cfg.Breakers {
			ropts.Breaker = &shard.BreakerConfig{}
		}
		router, err := shard.New(ropts, shards)
		if err != nil {
			panic(err) // unreachable: shard IDs above are distinct and non-nil
		}
		f.router = router
		f.Space = router
	}
	if cfg.Elastic {
		// Publish the initial topology (epoch 1, default labels) so every
		// watcher treats topology records as authoritative from the start —
		// the legacy add-only growth path never races a reshard.
		f.initElastic(shards)
	}
	// The master's operating handle records per-op latencies. The wrapper
	// delegates to the router underneath, so RestartShard's in-place
	// Replace stays visible through it.
	f.Space = obs.InstrumentSpace(f.Space, clock, cfg.Obs.Reg(), metrics.HistSpacePrefix)

	f.Master = master.New(master.Config{
		Clock:         clock,
		Space:         f.Space,
		Machine:       clus.MasterMachine,
		ResultTimeout: cfg.ResultTimeout,
		// Sweeping expired worker transactions lets tasks held by
		// crashed workers reappear instead of stalling collection. The
		// growable sweeper lets split-born shards join the sweep loop.
		Sweeper:       f.sweeper,
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
		for i := 0; i < cfg.Shards; i++ {
			h := reg.Histogram(metrics.HistShardServe(i))
			reg.RegisterGauge(metrics.GaugeShardOps(i), func() int64 { return int64(h.Count()) })
		}
		if cfg.Replicas > 0 {
			f.replGauges(reg)
		}
		if f.router != nil {
			router := f.router
			reg.RegisterGauge(metrics.GaugeTopologyEpoch, func() int64 {
				return int64(router.TopoEpoch())
			})
		}
		cfg.Obs.SetHealth(f.healthReport)
		// The master answers SNMP GETs for the framework subtree on its
		// own server — the same management substrate the network
		// management module uses towards workers, now pointing back at
		// the master.
		f.MIB = snmp.NewMIB()
		obs.ExportMIB(f.MIB, cfg.Obs, cfg.Shards)
		snmp.NewAgent(clus.Community, f.MIB).Bind(clus.MasterServer)
	}
	if cfg.Obs != nil {
		f.registerFederation()
		f.flight("master", obs.FlightEvent{
			Kind:   obs.EventNodeStart,
			Detail: fmt.Sprintf("%d shards, %d workers", cfg.Shards, len(cfg.Workers)),
		})
	}
	return f
}

// durableOptions builds shard i's persistence configuration. When a fault
// plan is installed the WAL's writes route through it under the shard's
// disk endpoint, so chaos scripts can fail specific disk writes.
func (f *Framework) durableOptions(i int) space.DurableOptions {
	return f.durableOptionsAt(i, f.shardAddrs[i])
}

// durableOptionsAt is durableOptions with the disk endpoint's address made
// explicit — split-born shards configure durability before they appear in
// the framework's shard tables.
func (f *Framework) durableOptionsAt(i int, addr string) space.DurableOptions {
	opts := space.DurableOptions{
		Dir:      filepath.Join(f.cfg.DataDir, fmt.Sprintf("shard%d", i)),
		Fsync:    f.cfg.FsyncPolicy,
		Strict:   f.cfg.StrictDurability,
		Counters: f.Durability,
		// All shards share the append/fsync histograms: the interesting
		// question ("how slow is my disk?") is per deployment, not per
		// shard, and the per-shard serve histograms already split load.
		AppendHist: f.cfg.Obs.Reg().Histogram(metrics.HistWALAppend),
		SyncHist:   f.cfg.Obs.Reg().Histogram(metrics.HistWALFsync),
		OnWALEvent: f.walFlightSink(addr, addr),
	}
	if f.cfg.Faults != nil {
		ep := faults.DiskEndpoint(addr)
		plan := f.cfg.Faults
		opts.WrapWriter = func(w io.Writer) io.Writer { return plan.WrapWriter(ep, w) }
	}
	return opts
}

// configureAdmission arms the admission controller of a shard's service:
// the propagated-deadline check always, the inflight bound and brownout
// controller when Config.MaxInflight is set, and the deadline-aware
// service gate in place of the old gate middleware — AdmitBy charges the
// same modeled CPU as Admit did, and additionally drops a queued op whose
// service slot would end past the client's deadline. Every serving node
// (seed shards, split children, promoted standbys, restarted shards) goes
// through here so overload protection survives topology changes.
func (f *Framework) configureAdmission(svc *space.Service, addr string, gate *transport.ServiceGate) {
	svc.Admission().Configure(space.AdmissionConfig{
		Clock:       f.Clock,
		MaxInflight: f.cfg.MaxInflight,
		Gate:        gate,
		Counters:    f.Overload,
		FlightSink: func(detail string) {
			f.flight(addr, obs.FlightEvent{Kind: obs.EventBrownout, Shard: addr, Detail: detail})
		},
	})
}

// registerShard (re-)announces shard i in the lookup service, returning
// the registration ID. Durable shards carry recovery metadata: clients and
// operators can see that a service came back from its log and how much it
// restored.
func (f *Framework) registerShard(i int, d *space.Durable, recovered bool) uint64 {
	attrs := map[string]string{
		"type":           "javaspace",
		shard.AttrShard:  strconv.Itoa(i),
		shard.AttrShards: strconv.Itoa(f.cfg.Shards),
	}
	if d != nil {
		attrs["durable"] = "1"
		attrs["recovered-entries"] = strconv.Itoa(d.Info().Restored)
		if recovered {
			attrs["recovered"] = "1"
		}
	}
	var ttl time.Duration
	rs := f.repl(i)
	if rs != nil {
		// A replicated primary's registration is a lease: its pump renews
		// it each heartbeat, and the lapse is the backup's second failure
		// signal (beside heartbeat silence).
		attrs[shard.AttrRing] = rs.ringID
		attrs[shard.AttrRole] = shard.RolePrimary
		attrs[shard.AttrEpoch] = "1"
		ttl = f.replLeaseTTL()
	}
	id := f.Lookup.Register(discovery.ServiceItem{
		Name:       "javaspace",
		Address:    f.shardAddrs[i],
		Attributes: attrs,
	}, ttl)
	if rs != nil {
		rs.setRegID(id)
	}
	return id
}

// RestartShard crash-restarts hosted shard i: the live space is closed
// (in-memory state discarded, blocked callers woken with ErrClosed) and a
// replacement is recovered from the shard's WAL + snapshot, rebound under
// the same network address and re-admitted to the routing ring. It is the
// in-process equivalent of kill -9 on a persistent Outrigger followed by
// a restart from -datadir, and requires Config.DataDir.
func (f *Framework) RestartShard(i int) (space.RecoveryInfo, error) {
	if f.cfg.DataDir == "" {
		return space.RecoveryInfo{}, errors.New("core: RestartShard requires Config.DataDir")
	}
	// The shard tables grow under replMu when a split builds a child, so a
	// restart's reads and writes of them synchronize on the same lock.
	f.replMu.Lock()
	if i < 0 || i >= len(f.Shards) {
		f.replMu.Unlock()
		return space.RecoveryInfo{}, fmt.Errorf("core: no shard %d", i)
	}
	old, oldDur, addr := f.Shards[i], f.Durables[i], f.shardAddrs[i]
	f.replMu.Unlock()

	// Crash: drop the in-memory space. Entries live only in the WAL now.
	old.TS.Close()
	if err := oldDur.Close(); err != nil {
		return space.RecoveryInfo{}, fmt.Errorf("core: shard %d shutdown: %w", i, err)
	}

	// Restart: recover from disk. An elastic shard's chain gets a fresh
	// migration tap (the old one observed the dead space's journal); the
	// crash dropped any in-flight migration with it, which is exactly the
	// abort-and-retry path resharding already handles.
	dopts := f.durableOptionsAt(i, addr)
	var tap *rebalance.Tap
	if f.cfg.Elastic {
		tap = rebalance.NewTap(nil)
		dopts.Tee = tap
	}
	l, d, err := space.NewLocalDurable(f.Clock, dopts)
	if err != nil {
		return space.RecoveryInfo{}, fmt.Errorf("core: shard %d recovery: %w", i, err)
	}
	// WAL replay rebuilt the memo table; rewire its counters and flight
	// sink so dedup hits against recovered memos are still visible.
	l.TS.SetMemoCounters(f.Retries)
	l.TS.SetFlightSink(f.memoFlightSink(addr, addr))
	if f.cfg.MaxWaiters > 0 {
		l.TS.SetMaxWaiters(f.cfg.MaxWaiters)
	}
	f.replMu.Lock()
	if tap != nil {
		f.taps[i] = tap
	}
	f.Shards[i] = l
	f.Durables[i] = d
	srv, sweep, gate := f.shardSrvs[i], f.sweeps[i], f.gates[i]
	f.replMu.Unlock()
	if i == 0 {
		f.Local = l
	}
	sweep.swap(l.Mgr)

	// Rebind the service on the shard's existing server so clients'
	// proxies (dialed to the same address) reach the recovered space.
	// The recovered service gets a fresh admission controller, configured
	// like the seed's (the crash dropped the old inflight accounting with
	// the old service — exactly right, those ops died with the process).
	svc := space.NewService(l, srv)
	f.configureAdmission(svc, addr, gate)
	f.replMu.Lock()
	if i < len(f.services) {
		f.services[i] = svc
	}
	f.replMu.Unlock()
	var handle space.Space = l
	if gate != nil {
		handle = gated(l, gate)
	}
	if reg := f.cfg.Obs.Reg(); reg != nil {
		// Same serve histogram as before the crash: a shard keeps one
		// latency record across its restarts.
		srv.WrapPrefix("space.", obs.ServerMiddleware(f.Clock, reg.Histogram(metrics.HistShardServe(i))))
	}
	if err := f.router.Replace(addr, handle); err != nil {
		return space.RecoveryInfo{}, fmt.Errorf("core: shard %d re-admission: %w", i, err)
	}
	f.registerShard(i, d, true)
	f.flight(addr, obs.FlightEvent{
		Kind: obs.EventShardRestart, Shard: addr,
		Detail: fmt.Sprintf("%d entries restored", d.Info().Restored),
	})
	return d.Info(), nil
}

// Close shuts down the hosted shards and their durable logs. Runs are
// unaffected if it is never called (tests rely on process teardown), but
// durable deployments should close so final appends reach disk.
func (f *Framework) Close() {
	f.replMu.Lock()
	locals := append([]*space.Local(nil), f.Shards...)
	durables := append([]*space.Durable(nil), f.Durables...)
	f.replMu.Unlock()
	for _, l := range locals {
		l.TS.Close()
	}
	for _, d := range durables {
		if d != nil {
			d.Close()
		}
	}
	for _, rs := range f.replsSnapshot() {
		rs.mu.Lock()
		nodes := []*replNode{rs.primaryNode, rs.backupNode}
		rs.mu.Unlock()
		for _, n := range nodes {
			if n == nil {
				continue
			}
			n.local.TS.Close()
			if n.durable != nil {
				n.durable.Close()
			}
		}
	}
}

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
	f.replMu.Lock()
	f.runGroup = group
	f.replMu.Unlock()
	f.startReplPumps()
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
	// records, and AutoShard adds the load-driven rebalancer itself.
	for _, rw := range ringWatchers {
		rw := rw
		group.Go(rw.Run)
	}
	var reshardLoop *rebalancer
	if f.cfg.AutoShard {
		reshardLoop = f.newRebalancer()
		group.Go(reshardLoop.Run)
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
	if reshardLoop != nil {
		reshardLoop.Stop()
	}
	f.replMu.Lock()
	f.runGroup = nil
	f.replMu.Unlock()
	f.stopReplPumps()
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
		ropts := shard.Options{Clock: f.Clock, Seed: node.Name, ExactlyOnce: f.cfg.ExactlyOnce, Obs: f.cfg.Obs}
		if f.cfg.Replicas > 0 {
			ropts.Counters = f.Repl
		}
		if ropts.Counters == nil {
			ropts.Counters = f.Retries
		}
		if ropts.Counters == nil {
			ropts.Counters = f.Overload
		}
		if f.cfg.RetryBudget > 0 {
			// Each worker gets its own bucket: the budget bounds what one
			// client process can amplify, and workers fail independently.
			ropts.Budget = shard.NewRetryBudget(f.cfg.RetryBudget, 0)
		}
		if f.cfg.Breakers {
			ropts.Breaker = &shard.BreakerConfig{}
		}
		if f.cfg.Replicas > 0 || f.cfg.Elastic {
			ropts.Failover = shard.Resolver(lc, tmpl, dial)
		}
		router, rerr := shard.New(ropts, shards)
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
	f.flight(node.Name, obs.FlightEvent{Kind: obs.EventNodeStart, Detail: "worker"})
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
