package core

import (
	"gospaces/internal/replica"
	"gospaces/internal/space"
)

// Replication (Config.Replicas): every hosted shard is a primary/backup
// pair assembled, promoted and re-admitted by internal/shardhost; these are
// the chaos suites' handles on it.

// KillShardPrimary simulates kill -9 of shard i's serving primary; its hot
// standby promotes itself within Config.FailoverTimeout and the ring
// retargets — no RestartShard call is needed. Requires Config.Replicas.
func (f *Framework) KillShardPrimary(i int) error { return f.host.KillPrimary(i) }

// RejoinShard returns shard i's deposed node to service as the hot standby
// of its promoted primary; it has converged before this returns.
func (f *Framework) RejoinShard(i int) error { return f.host.Rejoin(i) }

// ReplicaState exposes shard i's current replication controllers (both nil
// when replication is off); the backup is the controller that would promote
// (or already has).
func (f *Framework) ReplicaState(i int) (*replica.Primary, *replica.Backup) {
	return f.host.ReplicaState(i)
}

// ShardEpoch reports the serving epoch of shard i's ring position (1 until
// the first failover; 0 when replication is off).
func (f *Framework) ShardEpoch(i int) uint64 { return f.host.Epoch(i) }

// DeposedHandle returns the master-side handle shard i's ring position had
// at construction. After a failover mutations through it must fail with
// replica.ErrFenced — the chaos tests' split-brain probe.
func (f *Framework) DeposedHandle(i int) space.Space { return f.host.DeposedHandle(i) }
