package core

// Observation hooks for harnesses that need to inspect a live framework's
// topology without reaching into its locked internals — the randomized
// scenario runner (internal/scenario) drives its invariant checks through
// these. They are read-only snapshots, safe to call at any point of a run,
// and deliberately reuse the /healthz report so the invariants the checker
// asserts are exactly what an operator would see.

// ShardInfo is a point-in-time view of one hosted shard.
type ShardInfo struct {
	// Index is the shard's slot in the framework's shard tables.
	Index int
	// Ring is the shard's ring position ("" before the elastic layer
	// assigns one — non-elastic deployments still report the registered
	// address).
	Ring string
	// Epoch is the ring position's replication epoch: 0 with replication
	// off, 1 until the first promotion, +1 per promotion.
	Epoch uint64
	// SplitBorn marks shards created by an online split.
	SplitBorn bool
	// Retired marks ring positions merged away; their spaces are drained.
	Retired bool
	// LiveEntries is the serving replica's live tuple count (0 for
	// retired shards).
	LiveEntries int
	// Owned is the shard's share of the hash space in [0,1] (elastic
	// deployments; 0 otherwise).
	Owned float64
	// WALPosition is the serving node's WAL position (0 when the
	// deployment is not durable).
	WALPosition uint64
}

// ShardInfos snapshots every hosted shard, split-born children included.
func (f *Framework) ShardInfos() []ShardInfo {
	h := f.host.Health()
	out := make([]ShardInfo, 0, len(h.Shards))
	for _, sh := range h.Shards {
		out = append(out, ShardInfo{
			Index:       sh.Shard,
			Ring:        sh.RingID,
			Epoch:       sh.Epoch,
			SplitBorn:   sh.SplitBorn,
			Retired:     sh.Retired,
			LiveEntries: sh.Entries,
			Owned:       sh.OwnedFraction,
			WALPosition: sh.WALPosition,
		})
	}
	return out
}

// Ownership reports each live ring position's share of the hash space.
// The shares of the live positions sum to 1 — the topology-convergence
// invariant.
func (f *Framework) Ownership() map[string]float64 { return f.host.Router().Ownership() }

// RingID resolves shard index i to its ring position. ok is false when no
// such shard is hosted.
func (f *Framework) RingID(i int) (string, bool) { return f.host.RingID(i) }
