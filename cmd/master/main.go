// Command master runs the master module over TCP: it hosts the JavaSpaces
// service and the code server, registers them with the lookup service,
// plans the chosen application's tasks, and aggregates results produced
// by however many workers join the federation.
//
// With -shards K the master hosts K independent space servers: shard 0
// shares the main listener with the code server, shards 1..K-1 get their
// own listeners, and every shard registers with the lookup service
// carrying its shard index. The master (and every worker that discovers
// the registrations) routes operations through a consistent-hash ring
// over the registered addresses.
//
// With -datadir DIR every hosted shard is durable: mutations append to a
// segmented write-ahead log under DIR/shard<i>, snapshots bound replay,
// and restarting the master with the same -datadir recovers the previous
// space contents before serving — JavaSpaces' persistent (Outrigger)
// mode. -fsync picks the sync policy (always, interval, never).
//
// With -replicas 1 every hosted shard gets a hot standby on its own
// listener: journal records ship to it synchronously (-replack sync) or
// in the background (-replack async), and if the primary's heartbeats and
// lookup lease both go silent for -failover-timeout the standby promotes
// itself and re-registers under the shard's ring position at a higher
// epoch. See internal/replica for the protocol.
//
// Usage:
//
//	master -addr 127.0.0.1:7002 -lookup 127.0.0.1:7001 -job montecarlo -shards 4 -spread
//	master -addr 127.0.0.1:7002 -lookup 127.0.0.1:7001 -job montecarlo -datadir /var/lib/gospaces
//	master -addr 127.0.0.1:7002 -lookup 127.0.0.1:7001 -job montecarlo -shards 2 -replicas 1
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/pagerank"
	"gospaces/internal/apps/raytrace"
	"gospaces/internal/discovery"
	"gospaces/internal/master"
	"gospaces/internal/metrics"
	"gospaces/internal/nodeconfig"
	"gospaces/internal/obs"
	"gospaces/internal/rebalance"
	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/snmp"
	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7002", "listen address for the space/code services")
	lookupAddr := flag.String("lookup", "127.0.0.1:7001", "lookup service address")
	jobName := flag.String("job", "montecarlo", "application to run: montecarlo, raytrace, pagerank")
	timeout := flag.Duration("result-timeout", 10*time.Minute, "per-result collection timeout")
	datadir := flag.String("datadir", "", "directory for durable shards (segmented WAL + snapshots, one subdirectory per shard); restarting with the same -datadir recovers the previous contents")
	fsync := flag.String("fsync", "always", "WAL sync policy with -datadir: always, interval, or never")
	sims := flag.Int("sims", 0, "override the option-pricing simulation count (montecarlo only; 0 = paper's 10000)")
	shards := flag.Int("shards", 1, "number of space shard servers to host")
	spread := flag.Bool("spread", false, "key each montecarlo task individually so the bag spreads across shards")
	obsAddr := flag.String("obs", "", "serve the live ops surface (Prometheus /metrics, /debug/pprof, /tracez) on this address, e.g. :6060")
	replicas := flag.Int("replicas", 0, "hot standbys per hosted shard (0 or 1); 1 enables primary/backup replication with automatic failover")
	replack := flag.String("replack", "sync", "replication acknowledgement mode: sync (ack after the standby confirms) or async")
	failoverTimeout := flag.Duration("failover-timeout", 2*time.Second, "heartbeat/lease silence after which a standby promotes itself")
	autoshard := flag.Bool("autoshard", false, "let a load-driven rebalancer split hot shards and merge cold split-born ones at runtime (requires -replicas 0)")
	splitThreshold := flag.Float64("split-threshold", 500, "with -autoshard: smoothed ops/sec above which a shard splits")
	mergeThreshold := flag.Float64("merge-threshold", 10, "with -autoshard: smoothed ops/sec below which a split-born shard merges back")
	reshardInterval := flag.Duration("reshard-interval", 5*time.Second, "with -autoshard: rebalancer sampling interval")
	exactlyOnce := flag.Bool("exactly-once", false, "deduplicate retried mutations server-side: clients mint idempotency tokens, shards memoize tokened outcomes, and ambiguous op timeouts are retried instead of surfaced")
	maxInflight := flag.Int("max-inflight", 0, "per-shard admission bound: ops admitted but unfinished beyond this fast-fail with 'overloaded' instead of queueing; also arms the brownout controller that sheds low-priority ops under sustained saturation (0 = unlimited)")
	retryBudget := flag.Int("retry-budget", 0, "token-bucket cap on the master router's total retry volume, refilled by successes; an empty bucket surfaces the last error instead of retrying (0 = unlimited)")
	flag.Parse()
	ecfg := elasticFlags{
		on: *autoshard, splitThreshold: *splitThreshold,
		mergeThreshold: *mergeThreshold, interval: *reshardInterval,
	}
	ocfg := overloadFlags{maxInflight: *maxInflight, retryBudget: *retryBudget}
	if err := run(*addr, *lookupAddr, *jobName, *timeout, *datadir, *fsync, *sims, *shards, *spread, *obsAddr, *replicas, *replack, *failoverTimeout, ecfg, *exactlyOnce, ocfg); err != nil {
		log.Fatalf("master: %v", err)
	}
}

func buildJob(name string, sims int, spread bool) (master.Job, func(), error) {
	if spread && name != "montecarlo" {
		return nil, nil, fmt.Errorf("-spread only applies to the montecarlo job")
	}
	switch name {
	case "montecarlo":
		cfg := montecarlo.DefaultJobConfig()
		if sims > 0 {
			cfg.TotalSims = sims
		}
		cfg.ShardSpread = spread
		job := montecarlo.NewJob(cfg)
		return job, func() {
			price, err := job.Answer()
			if err != nil {
				log.Printf("master: answer: %v", err)
				return
			}
			fmt.Printf("option price bracket: low %.4f (±%.4f)  high %.4f (±%.4f)  mid %.4f\n",
				price.Low, price.LowErr, price.High, price.HighErr, price.Midpoint())
		}, nil
	case "raytrace":
		job := raytrace.NewJob(raytrace.DefaultJobConfig())
		return job, func() {
			_, complete := job.Image()
			fmt.Printf("render complete: %v\n", complete)
		}, nil
	case "pagerank":
		job := pagerank.NewJob(pagerank.DefaultJobConfig())
		return job, func() {
			ranks := job.Ranks()
			fmt.Printf("computed %d page ranks\n", len(ranks))
		}, nil
	default:
		return nil, nil, fmt.Errorf("unknown job %q", name)
	}
}

// elasticFlags carries the -autoshard flag group into run.
type elasticFlags struct {
	on                             bool
	splitThreshold, mergeThreshold float64
	interval                       time.Duration
}

// overloadFlags carries the overload-protection flag group into run.
type overloadFlags struct {
	maxInflight, retryBudget int
}

func run(addr, lookupAddr, jobName string, resultTimeout time.Duration, dataDir, fsync string, sims, numShards int, spread bool, obsAddr string, replicas int, replack string, failoverTimeout time.Duration, ecfg elasticFlags, exactlyOnce bool, ocfg overloadFlags) error {
	clk := vclock.NewReal()
	job, report, err := buildJob(jobName, sims, spread)
	if err != nil {
		return err
	}
	if replicas < 0 || replicas > 1 {
		return fmt.Errorf("-replicas must be 0 or 1, got %d", replicas)
	}
	if ecfg.on && replicas > 0 {
		return fmt.Errorf("-autoshard requires -replicas 0 in the TCP master (the in-process framework supports the replicated variant)")
	}
	ackMode, err := replica.ParseAckMode(replack)
	if err != nil {
		return fmt.Errorf("bad -replack: %w", err)
	}
	// The ops surface is opt-in; a nil *obs.Obs makes every instrumentation
	// call below a no-op.
	var o *obs.Obs
	if obsAddr != "" {
		o = obs.New(time.Now().UnixNano())
		closer, url, err := obs.Serve(obsAddr, o)
		if err != nil {
			return fmt.Errorf("ops endpoint: %w", err)
		}
		defer closer.Close()
		log.Printf("master: ops surface at %s (/metrics, /debug/pprof, /tracez)", url)
	}
	if numShards < 1 {
		numShards = 1
	}
	fsyncPolicy, err := wal.ParseFsyncPolicy(fsync)
	if err != nil {
		return fmt.Errorf("bad -fsync: %w", err)
	}
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -addr %q: %w", addr, err)
	}

	// Host the space services — shard 0 shares its server with the code
	// server. -datadir selects the durable (Outrigger persistent) mode:
	// each shard recovers its WAL + snapshot before serving.
	cs := nodeconfig.NewCodeServer()
	cs.Publish(job.Bundle())
	var (
		hosted    []shard.Shard
		sweeper   shard.MultiSweeper
		infos     = make([]space.RecoveryInfo, numShards)
		durables  = make([]*space.Durable, numShards)
		pairs     []*replicaPair
		shard0Srv *transport.Server
		locals    []*space.Local
		taps      []*rebalance.Tap
		services  []*space.Service
	)
	if replicas > 0 {
		pairs = make([]*replicaPair, numShards)
	}
	rcfg := replicaConfig{
		host: host, dataDir: dataDir, fsync: fsyncPolicy,
		ft: failoverTimeout, ack: ackMode, jobName: jobName, shards: numShards,
		eo: exactlyOnce,
	}
	for i := 0; i < numShards; i++ {
		// With replication on, the shard's journal records tee into a
		// switchable sink that the primary controller drains to its standby.
		var psw *replica.SwitchSink
		if replicas > 0 {
			psw = replica.NewSwitchSink()
		}
		// With -autoshard every shard's journal records tee into a
		// rebalance.Tap so a later split can snapshot-fork it live.
		var tap *rebalance.Tap
		if ecfg.on {
			tap = rebalance.NewTap(nil)
		}
		var local *space.Local
		switch {
		case dataDir != "":
			dopts := space.DurableOptions{
				Dir:        filepath.Join(dataDir, fmt.Sprintf("shard%d", i)),
				Fsync:      fsyncPolicy,
				Counters:   o.Ctr(),
				AppendHist: o.Reg().Histogram(metrics.HistWALAppend),
				SyncHist:   o.Reg().Histogram(metrics.HistWALFsync),
			}
			if o != nil {
				// The listener (and so the ring ID) doesn't exist yet, so
				// WAL events carry the stable per-process shard label.
				node := fmt.Sprintf("shard%d", i)
				dopts.OnWALEvent = func(kind, detail string) {
					k := obs.EventWALRotate
					if kind == "snapshot" {
						k = obs.EventWALSnapshot
					}
					o.Fl().Record(clk, obs.FlightEvent{Node: node, Kind: k, Shard: node, Detail: detail})
				}
			}
			if psw != nil {
				dopts.Tee = psw
			} else if tap != nil {
				dopts.Tee = tap
			}
			var d *space.Durable
			local, d, err = space.NewLocalDurable(clk, dopts)
			if err != nil {
				return fmt.Errorf("durable shard %d: %w", i, err)
			}
			defer d.Close()
			durables[i] = d
			infos[i] = d.Info()
			log.Printf("master: shard %d recovered %d entries in %v (%d snapshot + %d tail records)",
				i, infos[i].Restored, infos[i].Elapsed.Round(time.Millisecond),
				infos[i].SnapshotRecords, infos[i].TailRecords)
		default:
			local = space.NewLocal(clk)
			if psw != nil {
				if err := local.TS.AttachJournal(tuplespace.NewJournalSink(psw)); err != nil {
					return fmt.Errorf("journal for shard %d: %w", i, err)
				}
			} else if tap != nil {
				if err := local.TS.AttachJournal(tuplespace.NewJournalSink(tap)); err != nil {
					return fmt.Errorf("journal for shard %d: %w", i, err)
				}
			}
		}
		if exactlyOnce {
			local.TS.SetMemoCounters(o.Ctr())
		}
		srv := transport.NewServer()
		svc := space.NewService(local, srv)
		// Arm admission: the propagated-deadline check always (a worker's
		// -optimeout rides each RPC frame, so queued work the client gave up
		// on is dropped, not executed), the inflight bound when configured.
		acfg := space.AdmissionConfig{Clock: clk, MaxInflight: ocfg.maxInflight, Counters: o.Ctr()}
		if o != nil {
			shardLabel := fmt.Sprintf("shard%d", i)
			acfg.FlightSink = func(detail string) {
				o.Fl().Record(clk, obs.FlightEvent{Node: shardLabel, Kind: obs.EventBrownout, Shard: shardLabel, Detail: detail})
			}
		}
		svc.Admission().Configure(acfg)
		services = append(services, svc)
		handle := space.Space(local)
		if replicas > 0 {
			// Built directly after NewService so the replication middleware
			// sits innermost — sync-mode mutations confirm the standby's
			// apply before the obs layer sees the reply.
			rp, err := newReplicaPair(i, clk, o, local, srv, psw, rcfg)
			if err != nil {
				return err
			}
			pairs[i] = rp
			defer rp.stop()
			handle = rp.primaryHandle(local)
			sweeper = append(sweeper, rp.blocal.Mgr)
		}
		if reg := o.Reg(); reg != nil {
			srv.WrapPrefix("space.", obs.ServerMiddleware(clk, reg.Histogram(metrics.HistShardServe(i))))
		}
		la := addr
		if i == 0 {
			cs.Bind(srv)
			shard0Srv = srv
		} else {
			la = net.JoinHostPort(host, "0")
		}
		l, err := transport.ListenTCP(la, srv)
		if err != nil {
			return err
		}
		defer l.Close()
		sh := shard.Shard{ID: l.Addr(), Space: handle}
		if replicas > 0 {
			pairs[i].ringID = l.Addr()
			sh.Epoch = 1
		}
		if o != nil {
			ringID := l.Addr()
			local.TS.SetFlightSink(func(kind, detail string) {
				o.Fl().Record(clk, obs.FlightEvent{Node: ringID, Shard: ringID, Kind: obs.EventDedupHit, Detail: detail})
			})
		}
		hosted = append(hosted, sh)
		locals = append(locals, local)
		taps = append(taps, tap)
		sweeper = append(sweeper, local.Mgr)
		log.Printf("master: space shard %d/%d on %s", i, numShards, l.Addr())
		if replicas > 0 {
			log.Printf("master: shard %d standby on %s (%s replication, failover after %v)",
				i, pairs[i].baddr, ackMode, failoverTimeout)
		}
	}

	// Join the lookup federation: one registration per shard, each
	// carrying its shard index so clients rebuild the same ring.
	lc, err := transport.DialTCP(lookupAddr)
	if err != nil {
		return fmt.Errorf("dial lookup: %w", err)
	}
	defer lc.Close()
	client := discovery.NewClient(lc)
	for i, s := range hosted {
		if pairs != nil {
			// Replicated shards register on a short lease renewed by the
			// primary pump (no KeepAlive: a dead primary must let it lapse),
			// plus a standby registration under a distinct type.
			if err := pairs[i].register(client, spread, dataDir != ""); err != nil {
				return err
			}
			continue
		}
		attrs := map[string]string{
			"type":           "javaspace",
			"job":            jobName,
			shard.AttrShard:  strconv.Itoa(i),
			shard.AttrShards: strconv.Itoa(numShards),
		}
		if spread {
			attrs["spread"] = "1"
		}
		if dataDir != "" {
			// Durable shards advertise their recovery so operators (and
			// tests) can see a service came back from its log.
			attrs["durable"] = "1"
			attrs["recovered-entries"] = strconv.Itoa(infos[i].Restored)
			if infos[i].Segments > 0 || infos[i].SnapshotRecords > 0 {
				attrs["recovered"] = "1"
			}
		}
		regID, err := client.Register(discovery.ServiceItem{
			Name:       "javaspace",
			Address:    s.ID,
			Attributes: attrs,
		}, time.Minute)
		if err != nil {
			return fmt.Errorf("register shard %d with lookup: %w", i, err)
		}
		ka := discovery.NewKeepAlive(client, clk, regID, time.Minute)
		go ka.Run()
		defer ka.Stop()
	}
	log.Printf("master: registered %d javaspace shard(s) with lookup at %s", numShards, lookupAddr)
	for _, rp := range pairs {
		rp.start()
	}

	var sp space.Space = hosted[0].Space
	var router *shard.Router
	if numShards > 1 || ecfg.on || exactlyOnce {
		// Elastic mode needs a router even for one shard: splits retarget
		// its membership at runtime. Exactly-once needs one too: the token
		// minting and retry machinery live in the router.
		ropts := shard.Options{Clock: clk, Seed: "master", ExactlyOnce: exactlyOnce, Obs: o}
		if pairs != nil {
			// On a hard shard failure the router re-resolves the ring
			// position through the lookup service, picking the registration
			// with the highest epoch — the promoted standby.
			ropts.Failover = shard.Resolver(client,
				map[string]string{"type": "javaspace", "job": jobName},
				func(a string) (space.Space, error) { return space.Dial(a) })
			ropts.Counters = o.Ctr()
		}
		if ropts.Counters == nil && exactlyOnce {
			ropts.Counters = o.Ctr()
		}
		if ocfg.retryBudget > 0 {
			ropts.Budget = shard.NewRetryBudget(ocfg.retryBudget, 0)
			if ropts.Counters == nil {
				ropts.Counters = o.Ctr()
			}
		}
		router, err = shard.New(ropts, hosted)
		if err != nil {
			return err
		}
		sp = router
	}
	if o != nil {
		setHealth(o, numShards, pairs, durables, locals, services, ocfg.maxInflight)
		setFederation(o, numShards, pairs, durables, locals, hosted)
		o.Fl().Record(clk, obs.FlightEvent{
			Node: "master", Kind: obs.EventNodeStart,
			Detail: fmt.Sprintf("%d shards, %d replicas", numShards, replicas),
		})
	}
	var sweepFor interface{ Sweep() int } = sweeper
	var eh *elasticHost
	if ecfg.on {
		ds := &dynSweeper{}
		for _, s := range sweeper {
			ds.add(s)
		}
		sweepFor = ds
		eh, err = startElastic(clk, o, client, router, ds, host, jobName, dataDir, fsyncPolicy,
			spread, hosted, locals, taps, ecfg.splitThreshold, ecfg.mergeThreshold, ecfg.interval)
		if err != nil {
			return err
		}
		defer eh.stop()
		log.Printf("master: autoshard on (split above %.0f ops/s, merge below %.0f ops/s, sampled every %v)",
			ecfg.splitThreshold, ecfg.mergeThreshold, ecfg.interval)
	}
	sp = obs.InstrumentSpace(sp, clk, o.Reg(), metrics.HistSpacePrefix)
	m := master.New(master.Config{
		Clock:         clk,
		Space:         sp,
		ResultTimeout: resultTimeout,
		Sweeper:       sweepFor,
		SweepInterval: 30 * time.Second,
		Obs:           o,
	})
	if reg := o.Reg(); reg != nil {
		reg.RegisterGauge(metrics.GaugeTasksPending, m.PendingTasks)
		reg.RegisterGauge(metrics.GaugeTasksInFlight, m.InFlight)
		reg.RegisterGauge(metrics.GaugeTasksPlanned, m.TasksPlanned)
		reg.RegisterGauge(metrics.GaugeResultsCollected, m.ResultsCollected)
		for i := 0; i < numShards; i++ {
			h := reg.Histogram(metrics.HistShardServe(i))
			reg.RegisterGauge(metrics.GaugeShardOps(i), func() int64 { return int64(h.Count()) })
		}
		// The framework MIB answers SNMP GETs on shard 0's server — the
		// same numbers /metrics reports, over the management substrate.
		mib := snmp.NewMIB()
		obs.ExportMIB(mib, o, numShards)
		snmp.NewAgent("public", mib).Bind(shard0Srv)
	}
	log.Printf("master: running job %q", jobName)
	rm, err := m.RunJob(job)
	if err != nil {
		return err
	}
	log.Printf("master: done — tasks=%d shards=%d planning=%v aggregation=%v parallel=%v",
		rm.Tasks, rm.Shards, rm.TaskPlanningTime, rm.TaskAggregationTime, rm.ParallelTime)
	report()
	if o != nil {
		fmt.Print(metrics.SummaryTable("Observability — per-stage latency", o.Registry.Summary()))
	}
	return nil
}
