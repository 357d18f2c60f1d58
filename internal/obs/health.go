package obs

import "sync"

// The two values of ShardHealth.Role.
const (
	RolePrimary = "primary"
	RoleBackup  = "backup"
)

// ShardHealth is one hosted shard's liveness summary: which replica
// currently serves its ring position, at what epoch, how far the standby
// trails the primary's record stream, and how far the shard's write-ahead
// log has advanced (0 when the shard is not durable).
type ShardHealth struct {
	Shard int `json:"shard"`
	// Role is RolePrimary while the original primary serves the ring
	// position and RoleBackup once a promoted standby holds it.
	Role           string `json:"role"`
	Epoch          uint64 `json:"epoch,omitempty"`
	ReplicationLag uint64 `json:"replication_lag"`
	WALPosition    uint64 `json:"wal_position"`
	// RingID is the shard's ring position (its registered address); empty
	// before the elastic layer assigns one.
	RingID string `json:"ring_id,omitempty"`
	// OwnedFraction is the share of the hash space this shard's ring
	// position currently owns, in [0,1]. Splits shrink it, merges grow it.
	OwnedFraction float64 `json:"owned_fraction,omitempty"`
	// Entries is the serving replica's live tuple count.
	Entries int `json:"entries"`
	// OpRate is the rebalancer's smoothed ops/sec estimate for the shard —
	// the number the split/merge thresholds are judged against.
	OpRate float64 `json:"op_rate,omitempty"`
	// MemoEntries is the serving replica's exactly-once memo-table size —
	// how many tokened mutation outcomes it currently holds for dedup.
	MemoEntries int `json:"memo_entries,omitempty"`
	// DedupHits counts retried mutations this replica answered from its
	// memo table instead of re-executing.
	DedupHits uint64 `json:"dedup_hits,omitempty"`
	// TxnsLive is the serving replica's open transactions; TxnsExpired
	// counts those it aborted because their lease lapsed.
	TxnsLive    int    `json:"txns_live,omitempty"`
	TxnsExpired uint64 `json:"txns_expired,omitempty"`
	// SplitBorn marks shards created by an online split (merge candidates).
	SplitBorn bool `json:"split_born,omitempty"`
	// Retired marks shards merged away; they no longer serve the ring.
	Retired bool `json:"retired,omitempty"`
	// BrownoutLevel is the shard's admission-controller brownout level
	// (0 = full service, 1 = shedding diagnostics, 2 = shedding reads).
	BrownoutLevel int `json:"brownout_level,omitempty"`
	// Inflight is the shard's admitted-but-unfinished op count.
	Inflight int `json:"inflight,omitempty"`
	// AdmitRejected counts ops fast-failed by the shard's inflight bound.
	AdmitRejected uint64 `json:"admit_rejected,omitempty"`
	// Shed counts ops dropped by the shard's brownout controller.
	Shed uint64 `json:"shed,omitempty"`
}

// OverloadHealth aggregates the cluster's admission-control state for
// /healthz: the worst brownout level across shards plus the summed
// admission counters. Not omitempty — "no overload" is itself a vital.
type OverloadHealth struct {
	// BrownoutLevel is the maximum level across hosted shards.
	BrownoutLevel int `json:"brownout_level"`
	// MaxInflight is the per-shard pending-op bound.
	MaxInflight int `json:"max_inflight"`
	// Inflight sums admitted-but-unfinished ops across shards.
	Inflight int `json:"inflight"`
	// Rejected, Shed and DeadlineExpired sum the shards' admission
	// counters: inflight-bound fast-fails, brownout drops, and ops
	// dropped because their propagated deadline had passed.
	Rejected        uint64 `json:"rejected"`
	Shed            uint64 `json:"shed"`
	DeadlineExpired uint64 `json:"deadline_expired"`
}

// Health is the point-in-time report served at /healthz.
type Health struct {
	Status string `json:"status"`
	// TopologyEpoch is the ring's current topology epoch (0 until the
	// first reshard).
	TopologyEpoch uint64        `json:"topology_epoch,omitempty"`
	Shards        []ShardHealth `json:"shards,omitempty"`
	// Overload is the cluster's admission-control state. Status degrades
	// to "browned-out" while any shard sheds.
	Overload OverloadHealth `json:"overload"`
	// Flight recorder vitals (filled by the /healthz handler from the
	// Obs's recorder, not by health providers): retained event count,
	// ring evictions, and the causal clock's latest Lamport stamp. Not
	// omitempty — a zeroed recorder is itself a liveness signal.
	FlightDepth   int    `json:"flight_depth"`
	FlightDropped uint64 `json:"flight_dropped"`
	FlightClk     uint64 `json:"flight_clk"`
}

var healthMu sync.Mutex

// SetHealth installs the /healthz provider — typically the framework's
// per-shard replication/durability snapshot. A nil o is a no-op; with no
// provider the endpoint reports a bare {"status":"ok"}.
func (o *Obs) SetHealth(fn func() Health) {
	if o == nil {
		return
	}
	healthMu.Lock()
	o.health = fn
	healthMu.Unlock()
}

// HealthReport returns the current health (nil-safe).
func (o *Obs) HealthReport() Health {
	if o == nil {
		return Health{Status: "ok"}
	}
	healthMu.Lock()
	fn := o.health
	healthMu.Unlock()
	if fn == nil {
		return Health{Status: "ok"}
	}
	return fn()
}
