package core

import "gospaces/internal/shardhost"

// Elastic resharding (Config.Elastic / Config.AutoShard): internal/shardhost
// splits and merges ring positions online; these are the scripts' handles on
// it.

// SplitReport describes one completed shard split.
type SplitReport = shardhost.SplitReport

// SplitShard splits ring member parentRing online: roughly half its key arc
// moves to a freshly built shard while the source keeps serving. Requires
// Config.Elastic.
func (f *Framework) SplitShard(parentRing string) (SplitReport, error) {
	return f.host.Split(parentRing)
}

// MergeShards folds split-born shard childRing back into the parent it was
// forked from and retires it. Requires Config.Elastic.
func (f *Framework) MergeShards(childRing string) error { return f.host.Merge(childRing) }

// TopologyEpoch reports the master router's current ring topology epoch
// (0 when not elastic).
func (f *Framework) TopologyEpoch() uint64 { return f.host.TopologyEpoch() }

// SplitBorn lists the ring IDs of live split-born shards, in no particular
// order.
func (f *Framework) SplitBorn() []string { return f.host.SplitBorn() }

// ShardIndex resolves a ring ID to its shard table index — how a chaos
// script addresses a split-born shard in KillShardPrimary or RestartShard.
func (f *Framework) ShardIndex(ring string) (int, bool) { return f.host.ShardIndex(ring) }

// ReshardErr returns the most recent background reshard error, if any —
// settle timeouts, drain re-arms, controller-executed action failures.
func (f *Framework) ReshardErr() error { return f.host.Err() }
