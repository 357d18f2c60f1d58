package shardhost

import (
	"fmt"
	"time"

	"gospaces/internal/obs"
	"gospaces/internal/replica"
	"gospaces/internal/wal"
)

// Spec describes a hosted shard set. Its fields are the host-related
// fields of core.Config (see there for the long-form documentation of
// each knob) plus the two things that distinguish a TCP deployment's
// lookup registrations: extra attributes and a lease.
type Spec struct {
	// Shards is how many seed shards to host (default 1).
	Shards int
	// SpaceOpCost models the server CPU one space operation consumes; each
	// serving node admits through a FIFO gate of this cost. Zero disables.
	SpaceOpCost time.Duration

	// DataDir, when set, makes every hosted shard durable: shard i keeps
	// its WAL under <DataDir>/shard<i>, its standby under
	// <DataDir>/shard<i>.backup.
	DataDir          string
	FsyncPolicy      wal.FsyncPolicy
	StrictDurability bool

	// Replicas gives every ring position a hot standby (0 or 1).
	Replicas int
	ReplAck  replica.AckMode
	// FailoverTimeout is the standby's heartbeat-silence bound and the
	// serving primary's registration lease. Default 2 s.
	FailoverTimeout time.Duration

	// MaxInflight / MaxWaiters bound each serving node's admitted ops and
	// parked waiters (0 = unlimited). RetryBudget and Breakers shape the
	// master-side router. ExactlyOnce mints idempotency tokens there.
	MaxInflight int
	MaxWaiters  int
	RetryBudget int
	Breakers    bool
	ExactlyOnce bool

	// Elastic puts a migration tap in every node's journal chain and
	// publishes a ring topology; AutoShard (which implies it) also runs the
	// load-driven rebalancer between Start and Stop.
	Elastic           bool
	AutoShard         bool
	SplitThreshold    float64
	MergeThreshold    float64
	ReshardInterval   time.Duration // default 1 s
	ReshardHysteresis int
	ReshardCooldown   time.Duration
	MaxShards         int
	// ReshardDrain is the post-cutover lame-duck window; it must outlast
	// client ring convergence. Default 2×ReshardInterval.
	ReshardDrain time.Duration
	// TxnTTL bounds how long a migration waits for in-flight transactions
	// holding entries of the moving range. Default 2 min.
	TxnTTL time.Duration

	// Obs, if set, receives serve histograms, gauges, flight events, the
	// /healthz provider and the federation members. Nil keeps every hook a
	// no-op.
	Obs *obs.Obs

	// Attrs are merged into every javaspace registration — a TCP master
	// tags its shards with the job ("job") and task keying ("spread") so
	// workers can pick the matching template.
	Attrs map[string]string
	// LeaseTTL leases the registrations of unreplicated shards, renewed by
	// the host while it lives, so a dead process ages out of the lookup
	// service. Zero registers forever (one process, one registry: nothing
	// can outlive it).
	LeaseTTL time.Duration
}

// Validate rejects a spec the host cannot run. Zero values are not errors
// (New fills defaults); out-of-range ones are.
func (s Spec) Validate() error {
	if s.Replicas < 0 || s.Replicas > 1 {
		return fmt.Errorf("shardhost: replicas must be 0 or 1, got %d", s.Replicas)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"max-inflight", s.MaxInflight}, {"max-waiters", s.MaxWaiters},
		{"retry-budget", s.RetryBudget}, {"max-shards", s.MaxShards},
		{"reshard-hysteresis", s.ReshardHysteresis},
	} {
		if c.v < 0 {
			return fmt.Errorf("shardhost: %s must be >= 0, got %d", c.name, c.v)
		}
	}
	for _, c := range []struct {
		name string
		v    time.Duration
	}{
		{"space-op-cost", s.SpaceOpCost}, {"failover-timeout", s.FailoverTimeout},
		{"reshard-interval", s.ReshardInterval}, {"reshard-cooldown", s.ReshardCooldown},
		{"reshard-drain", s.ReshardDrain}, {"txn-ttl", s.TxnTTL}, {"lease-ttl", s.LeaseTTL},
	} {
		if c.v < 0 {
			return fmt.Errorf("shardhost: %s must be >= 0, got %v", c.name, c.v)
		}
	}
	if s.SplitThreshold < 0 || s.MergeThreshold < 0 {
		return fmt.Errorf("shardhost: split/merge thresholds must be >= 0, got %g/%g", s.SplitThreshold, s.MergeThreshold)
	}
	if s.MaxShards > 0 && s.MaxShards < s.Shards {
		return fmt.Errorf("shardhost: max-shards %d is below the %d seed shards", s.MaxShards, s.Shards)
	}
	return nil
}

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
	if s.ReshardDrain == 0 {
		s.ReshardDrain = 2 * s.ReshardInterval
	}
	if s.TxnTTL == 0 {
		s.TxnTTL = 2 * time.Minute
	}
	return s
}
