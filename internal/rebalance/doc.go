// Package rebalance makes the sharded space elastic: it splits a hot
// shard online, merges a cold one back, and runs the load-driven
// controller that decides when to do either — the adaptive half of
// "adaptive cluster computing" that the static core.Config{Shards} count
// never delivered.
//
// A split composes primitives the replication and durability layers
// already provide, in a protocol with three phases:
//
//  1. Fork. A Tap sitting in the source shard's journal chain starts
//     buffering records; the source state matching the migrating key
//     range is snapshotted (tuplespace.EncodeStateWhere) and replayed
//     into the child shard through a range-filtered tuplespace.Applier;
//     then the tap goes live, forwarding every subsequent source record
//     to the same applier. Deduplication by source entry id makes the
//     snapshot/stream overlap idempotent, so after this phase the child
//     continuously converges with the source's migrating range while
//     the source keeps serving every operation. The child's copies are
//     staged: journaled, but seen by no lookup.
//  2. Settle + cutover. EvictWhere atomically removes migrated-range
//     entries from the source, journaling "evict" records, each of which
//     reveals the child's staged copy; the evicted write-records are
//     re-applied as an idempotent safety net. When no matching entry is
//     lock-held the new Topology — the child owning half of the parent's
//     ring point labels — is published at a strictly higher topology
//     epoch. Routers apply it or a newer one, never an older: the same
//     fencing discipline as replication epochs.
//  3. Lame duck. Workers converge on the new topology within one
//     Watcher poll interval; until then stragglers may still write
//     migrating-range entries to the parent. Periodic settle passes
//     keep evicting them across to the child until a pass finds the
//     range empty, then the tap closes.
//
// Entries are never in zero places durably: the child applies records
// through its own journal chain (WAL, replica) before the source copy is
// evicted. They are never served from two places: a copy is staged until
// the source's eviction reveals it, and a take at the source cancels it.
//
// A merge is the cold inverse: the same migration run from the child back
// into its parent, and a topology that returns the child's labels and
// drops the member. One ownership rule (Moving) selects what moves in
// both directions: a keyed entry whose key the new ring gives to another
// member, and an unkeyed one only off a member that leaves — so a merge
// moves everything. The parent is in the ring throughout, which is why
// copies are staged.
//
// A Migration owns its retries. Source names the node serving the source
// now, so a fork that fails (the source died before any eviction) rolls
// back and forks again against the promoted standby, and a settle or
// sweep that fails after the first eviction — the commit point — makes
// Drain fence the destination, re-arm a live tap on that node and sweep
// again. The caller only says how long a promotion takes (Retry).
//
// The Controller watches per-shard op-rate EWMAs,
// applies hysteresis and a cooldown so split and merge cannot flap, and
// emits split/merge actions that core executes replica-aware: a
// split-born shard comes up with the same Replicas/ReplAck posture as
// every seed shard and registers with discovery like one.
package rebalance
