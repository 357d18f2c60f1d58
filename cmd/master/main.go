// Command master runs the master node over TCP — core.New over core.TCP,
// the assembly the simulator runs in process: it hosts the JavaSpaces
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
// With -autoshard a load-driven rebalancer splits hot shards into fresh
// listeners and merges cold split-born ones back at runtime; workers follow
// the published ring topology without restarting. See internal/rebalance.
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
	"time"

	"gospaces/internal/apps/montecarlo"
	"gospaces/internal/apps/pagerank"
	"gospaces/internal/apps/raytrace"
	"gospaces/internal/core"
	"gospaces/internal/master"
	"gospaces/internal/metrics"
	"gospaces/internal/obs"
	"gospaces/internal/replica"
	"gospaces/internal/shardhost"
	"gospaces/internal/space"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// config is the parsed command line.
type config struct {
	addr, lookup, job string
	resultTimeout     time.Duration
	sims              int
	spread            bool
	obsAddr           string

	dataDir, fsync  string
	shards          int
	replicas        int
	replack         string
	failoverTimeout time.Duration
	maxInflight     int

	autoshard                      bool
	splitThreshold, mergeThreshold float64
	reshardInterval                time.Duration
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", "127.0.0.1:7002", "listen address for the space/code services")
	flag.StringVar(&c.lookup, "lookup", "127.0.0.1:7001", "lookup service address")
	flag.StringVar(&c.job, "job", "montecarlo", "application to run: montecarlo, raytrace, pagerank")
	flag.DurationVar(&c.resultTimeout, "result-timeout", 10*time.Minute, "per-result collection timeout")
	flag.StringVar(&c.dataDir, "datadir", "", "directory for durable shards (segmented WAL + snapshots, one subdirectory per shard); restarting with the same -datadir recovers the previous contents")
	flag.StringVar(&c.fsync, "fsync", "always", "WAL sync policy with -datadir: always, interval, or never")
	flag.IntVar(&c.sims, "sims", 0, "override the option-pricing simulation count (montecarlo only; 0 = paper's 10000)")
	flag.IntVar(&c.shards, "shards", 1, "number of space shard servers to host")
	flag.BoolVar(&c.spread, "spread", false, "key each montecarlo task individually so the bag spreads across shards")
	flag.StringVar(&c.obsAddr, "obs", "", "serve the live ops surface (Prometheus /metrics, /debug/pprof, /tracez) on this address, e.g. :6060")
	flag.IntVar(&c.replicas, "replicas", 0, "hot standbys per hosted shard (0 or 1); 1 enables primary/backup replication with automatic failover")
	flag.StringVar(&c.replack, "replack", "sync", "replication acknowledgement mode: sync (ack after the standby confirms) or async")
	flag.DurationVar(&c.failoverTimeout, "failover-timeout", 2*time.Second, "heartbeat/lease silence after which a standby promotes itself")
	flag.BoolVar(&c.autoshard, "autoshard", false, "let a load-driven rebalancer split hot shards and merge cold split-born ones at runtime")
	flag.Float64Var(&c.splitThreshold, "split-threshold", 500, "with -autoshard: smoothed ops/sec above which a shard splits")
	flag.Float64Var(&c.mergeThreshold, "merge-threshold", 10, "with -autoshard: smoothed ops/sec below which a split-born shard merges back")
	flag.DurationVar(&c.reshardInterval, "reshard-interval", 5*time.Second, "with -autoshard: rebalancer sampling interval")
	flag.IntVar(&c.maxInflight, "max-inflight", space.DefaultMaxInflight, "per-shard admission bound: ops admitted but unfinished beyond this fast-fail with 'overloaded' instead of queueing, and the brownout controller sheds low-priority ops under sustained saturation near it")
	flag.Parse()
	if err := run(c); err != nil {
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

// spec turns the shard flags into the host's validated description.
func (c config) spec() (shardhost.Spec, error) {
	fsync, err := wal.ParseFsyncPolicy(c.fsync)
	if err != nil {
		return shardhost.Spec{}, fmt.Errorf("bad -fsync: %w", err)
	}
	ack, err := replica.ParseAckMode(c.replack)
	if err != nil {
		return shardhost.Spec{}, fmt.Errorf("bad -replack: %w", err)
	}
	// Workers read the job and the task keying off the registrations.
	attrs := map[string]string{"job": c.job}
	if c.spread {
		attrs["spread"] = "1"
	}
	spec := shardhost.Spec{
		Shards:          c.shards,
		DataDir:         c.dataDir,
		FsyncPolicy:     fsync,
		Replicas:        c.replicas,
		ReplAck:         ack,
		FailoverTimeout: c.failoverTimeout,
		MaxInflight:     c.maxInflight,
		AutoShard:       c.autoshard,
		SplitThreshold:  c.splitThreshold,
		MergeThreshold:  c.mergeThreshold,
		ReshardInterval: c.reshardInterval,
		Attrs:           attrs,
	}
	return spec, spec.Validate()
}

func run(c config) error {
	job, report, err := buildJob(c.job, c.sims, c.spread)
	if err != nil {
		return err
	}
	spec, err := c.spec()
	if err != nil {
		return err
	}
	// The ops surface is opt-in; a nil *obs.Obs makes every instrumentation
	// call a no-op.
	if c.obsAddr != "" {
		spec.Obs = obs.New(time.Now().UnixNano())
		closer, url, err := obs.Serve(c.obsAddr, spec.Obs)
		if err != nil {
			return fmt.Errorf("ops endpoint: %w", err)
		}
		defer closer.Close()
		log.Printf("master: ops surface at %s (/metrics, /debug/pprof, /tracez)", url)
	}

	// Host the space services and the code server, and join the lookup
	// federation: one registration per shard, each carrying its shard index
	// so clients rebuild the same ring. -datadir selects the durable
	// (Outrigger persistent) mode: each shard recovers its WAL + snapshot
	// before serving. The workers are other processes.
	f, err := core.New(vclock.NewReal(), core.TCP(c.lookup, c.addr, nil), core.Config{Spec: spec, ResultTimeout: c.resultTimeout})
	if err != nil {
		return err
	}
	defer f.Close()
	durables := f.Host.Durables()
	n := len(durables) // one entry per hosted shard, nil when not durable
	for i, d := range durables {
		ring, _ := f.Host.RingID(i)
		log.Printf("master: space shard %d/%d on %s", i, n, ring)
		if d != nil {
			info := d.Info()
			log.Printf("master: shard %d recovered %d entries in %v (%d snapshot + %d tail records)",
				i, info.Restored, info.Elapsed.Round(time.Millisecond), info.SnapshotRecords, info.TailRecords)
		}
		if c.replicas > 0 {
			log.Printf("master: shard %d has a hot standby (%s replication, failover after %v)", i, spec.ReplAck, c.failoverTimeout)
		}
	}
	log.Printf("master: registered %d javaspace shard(s) with lookup at %s", n, c.lookup)
	if c.autoshard {
		log.Printf("master: autoshard on (split above %.0f ops/s, merge below %.0f ops/s, sampled every %v)",
			c.splitThreshold, c.mergeThreshold, c.reshardInterval)
	}

	log.Printf("master: running job %q", c.job)
	res, err := f.Run(job, nil)
	if err != nil {
		return err
	}
	rm := res.Metrics
	log.Printf("master: done — tasks=%d shards=%d planning=%v aggregation=%v parallel=%v",
		rm.Tasks, rm.Shards, rm.TaskPlanningTime, rm.TaskAggregationTime, rm.ParallelTime)
	if err := f.Host.Err(); err != nil {
		log.Printf("master: last background shard-host error: %v", err)
	}
	report()
	if spec.Obs != nil {
		fmt.Print(metrics.SummaryTable("Observability — per-stage latency", res.ObsSummary))
	}
	return nil
}
