package shardhost

import (
	"fmt"
	"time"

	"gospaces/internal/obs"
	"gospaces/internal/replica"
	"gospaces/internal/shard"
	"gospaces/internal/wal"
)

// Spec describes a hosted shard set and the deployment-wide knobs its
// clients share: core.Config embeds it, cmd/master fills it from flags, and
// the worker side (internal/workerhost) is handed TxnTTL, WatchInterval and
// Obs from the same struct, so each is written once per deployment.
//
// Overload protection is not a setting: every serving node bounds its
// inflight ops (MaxInflight, default space.DefaultMaxInflight) and runs
// the brownout controller, and every router — the master's and each
// worker's — arms its retry budget and circuit breakers. The modeled
// per-op server CPU is the in-process network's (transport.Model.SpaceOp,
// which InProcEnv hands the host), not the spec's.
type Spec struct {
	// Shards is how many seed shards to host (default 1). With K > 1
	// entries partition across them by their `space:"index"` key via a
	// consistent-hash ring the master and every worker share. The caller
	// binds the code server on shard 0's server, so one shard is exactly the
	// classic single-server deployment.
	Shards int

	// DataDir, when set, makes every hosted shard durable — JavaSpaces'
	// persistent (Outrigger) mode: shard i keeps a segmented WAL plus
	// snapshots under <DataDir>/shard<i> (its standby under
	// <DataDir>/shard<i>.backup), recovers them before serving, and
	// Host.Restart crash-restarts it from its log mid-run. A mutation a
	// node's log refused fails and leaves the space unchanged, so nothing
	// is acknowledged that was not logged.
	DataDir     string
	FsyncPolicy wal.FsyncPolicy // default wal.FsyncAlways

	// Replicas gives every ring position a hot standby (0 or 1): journal
	// records stream to a backup space on its own server, which promotes
	// itself — next epoch, re-registration under the ring position — when
	// the primary goes silent. ReplAck: sync (default; a mutation
	// acknowledges after the backup confirmed) or async.
	Replicas int
	ReplAck  replica.AckMode
	// FailoverTimeout is the standby's heartbeat-silence bound and the
	// serving primary's registration lease. Default 2 s.
	FailoverTimeout time.Duration

	// MaxInflight bounds each serving node's admitted-but-unfinished ops:
	// past it calls fast-fail with tuplespace.ErrOverloaded, and near it
	// the brownout controller sheds the lowest-priority op classes first.
	// 0 = space.DefaultMaxInflight.
	MaxInflight int

	// Elastic puts a migration tap in every node's journal chain, publishes
	// a ring topology that clients watch, and enables Split and Merge.
	// AutoShard (which implies it) also runs the rebalancer between Start
	// and Stop: every ReshardInterval (default 1 s) it splits a shard whose
	// op-rate EWMA stayed above SplitThreshold and merges split-born ones
	// back below MergeThreshold, paced by the controller's fixed
	// hysteresis, cooldown and shard cap.
	Elastic         bool
	AutoShard       bool
	SplitThreshold  float64
	MergeThreshold  float64
	ReshardInterval time.Duration
	// WatchInterval is how often this host's clients poll the lookup
	// service for a newer ring topology — the bound on their convergence
	// after a cutover. Default shard.DefaultWatchInterval. A reshard's
	// post-cutover drain, during which the old owner keeps sweeping
	// straggler writes across to the new one, lasts two of them.
	WatchInterval time.Duration
	// TxnTTL leases each worker's per-task transaction, and bounds how long
	// a migration waits for in-flight transactions holding entries of the
	// moving range. Default 2 min.
	TxnTTL time.Duration

	// Obs, if set, receives serve histograms, per-shard gauges, the host's
	// counters, flight events and the /healthz provider — and the spans and
	// task histograms of the master and workers built from the same Spec.
	// Nil keeps every hook a no-op.
	Obs *obs.Obs

	// Attrs are merged into every javaspace registration — a TCP master
	// tags its shards with the job ("job") and task keying ("spread") so
	// workers can pick the matching template.
	Attrs map[string]string
}

// Validate rejects a spec the host cannot run. Zero values are not errors
// (New fills defaults); out-of-range ones are.
func (s Spec) Validate() error {
	if s.Replicas < 0 || s.Replicas > 1 {
		return fmt.Errorf("shardhost: replicas must be 0 or 1, got %d", s.Replicas)
	}
	if s.MaxInflight < 0 {
		return fmt.Errorf("shardhost: max-inflight must be >= 0, got %d", s.MaxInflight)
	}
	for _, c := range []struct {
		name string
		v    time.Duration
	}{
		{"failover-timeout", s.FailoverTimeout}, {"reshard-interval", s.ReshardInterval},
		{"watch-interval", s.WatchInterval}, {"txn-ttl", s.TxnTTL},
	} {
		if c.v < 0 {
			return fmt.Errorf("shardhost: %s must be >= 0, got %v", c.name, c.v)
		}
	}
	if s.SplitThreshold < 0 || s.MergeThreshold < 0 {
		return fmt.Errorf("shardhost: split/merge thresholds must be >= 0, got %g/%g", s.SplitThreshold, s.MergeThreshold)
	}
	return nil
}

// drain is a reshard's post-cutover lame-duck window, during which the old
// owner keeps sweeping straggler writes across to the new one: two watch
// intervals, so it outlasts the clients' ring convergence.
func (s Spec) drain() time.Duration { return 2 * s.WatchInterval }

func (s Spec) withDefaults() Spec {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.FailoverTimeout == 0 {
		s.FailoverTimeout = 2 * time.Second
	}
	if s.AutoShard {
		s.Elastic = true
	}
	if s.ReshardInterval == 0 {
		s.ReshardInterval = time.Second
	}
	if s.WatchInterval == 0 {
		s.WatchInterval = shard.DefaultWatchInterval
	}
	if s.TxnTTL == 0 {
		s.TxnTTL = 2 * time.Minute
	}
	return s
}
