package metrics

import "fmt"

// Canonical metric names. Every package that publishes into a Counters
// set or a Registry takes its key from here (the producing packages alias
// these constants rather than inventing ad-hoc strings), so exporters —
// the Prometheus-text page, the SNMP framework MIB, Result snapshots —
// agree on spelling. The convention is "<subsystem>:<metric>"; dynamic
// names (per shard, per node) come from the helper functions below.
//
// Counter keys (metrics.Counters):
const (
	// Write-ahead log (internal/wal).
	CounterWALRecords           = "wal:records"
	CounterWALSegments          = "wal:segments"
	CounterWALSnapshots         = "wal:snapshots"
	CounterWALSegmentsCompacted = "wal:segments_compacted"
	CounterWALAppendErrors      = "wal:append_errors"
	CounterWALSnapshotRestored  = "wal:recovered_snapshot"
	CounterWALTailRestored      = "wal:recovered_records"
	CounterWALTruncatedBytes    = "wal:truncated_bytes"
	CounterWALRecoveryMs        = "wal:recovery_ms"

	// Space journal (internal/tuplespace). Previously the one key that
	// broke the "<subsystem>:<metric>" convention ("journal_errors").
	CounterJournalErrors = "journal:errors"

	// Fault injection (internal/faults). Per-endpoint crash counts append
	// ":<endpoint>" to CounterFaultCrash.
	CounterFaultDrop        = "faults:drop"
	CounterFaultDelay       = "faults:delay"
	CounterFaultDuplicate   = "faults:duplicate"
	CounterFaultCrash       = "faults:crash"
	CounterFaultPartitioned = "faults:partitioned"
	CounterFaultDeadCall    = "faults:dead-call"

	// Primary/backup replication (internal/replica).
	CounterReplShipped    = "repl:records_shipped" // journal records acked by the backup
	CounterReplShipErrors = "repl:ship_errors"     // failed ship batches (backup unreachable)
	CounterReplFenced     = "repl:fenced"          // stale-epoch requests rejected
	CounterReplPromotions = "repl:promotions"      // backup self-promotions
	CounterReplResyncs    = "repl:resyncs"         // full snapshot re-syncs after divergence
	CounterReplFailovers  = "repl:failovers"       // router retargets onto a promoted backup

	// Exactly-once retry policy (internal/shard router: every mutation is
	// tokened).
	CounterRetryAttempts  = "retry:attempts"  // mutation retries issued after a failure
	CounterRetryAmbiguous = "retry:ambiguous" // retries of ambiguous (reply-lost) outcomes
	CounterRetryExhausted = "retry:exhausted" // mutations that ran out of retry attempts

	// Retry budget (internal/shard, token bucket shared across the
	// router's retry paths): retries denied because the budget — refilled
	// by successful traffic — was empty.
	CounterRetryBudgetDenied = "retry:budget_denied"

	// Server-side admission control (internal/space Admission).
	CounterAdmitRejected = "admit:rejected" // ops fast-failed by the inflight bound
	CounterAdmitExpired  = "admit:expired"  // ops dropped because their deadline had passed
	CounterShedLow       = "shed:low"       // PriLow ops shed under brownout level >= 1
	CounterShedNormal    = "shed:normal"    // PriNormal ops shed under brownout level 2

	// Per-shard circuit breakers (internal/shard router).
	CounterBreakerOpen     = "breaker:open"     // breaker trips (closed -> open)
	CounterBreakerClose    = "breaker:close"    // half-open probes that healed the shard
	CounterBreakerFastFail = "breaker:fastfail" // calls fast-failed while a breaker was open

	// Idempotency-token result memos (internal/tuplespace memo table).
	CounterDedupHits        = "dedup:hits"         // retried ops answered from the memo table
	CounterDedupMemoEvicted = "dedup:memo_evicted" // memos dropped by the FIFO bounds

	// Elastic resharding (internal/rebalance).
	CounterReshardSplits   = "reshard:splits"           // completed shard splits
	CounterReshardMerges   = "reshard:merges"           // completed shard merges
	CounterReshardMigrated = "reshard:entries_migrated" // entries snapshot-forked to a new owner
	CounterReshardEvicted  = "reshard:entries_evicted"  // entries evicted off the old owner
	CounterReshardAborted  = "reshard:aborted"          // migrations abandoned (source failover, errors)
)

// Histogram names (metrics.Registry).
const (
	// HistSpacePrefix prefixes the master-side per-operation space
	// latencies: "space:write", "space:take", … (one per space.Space
	// method, recorded by obs.InstrumentSpace).
	HistSpacePrefix = "space:"
	// HistWorkerSpacePrefix prefixes the same latencies as a worker node
	// sees them: "worker:space:take", … — kept apart from the master's so
	// a run's ops split into the master's side and the workers'.
	HistWorkerSpacePrefix = "worker:space:"

	// Per-stage task pipeline latencies.
	HistMasterPlan       = "master:plan"        // charge + task write, per task
	HistMasterAggregate  = "master:aggregate"   // charge + fold, per result
	HistMasterTakeResult = "master:take_result" // blocking result take, per result
	HistWorkerTask       = "worker:task"        // take-to-commit, per task

	// Durability latencies (real wall-clock time at the disk, not the
	// virtual clock: the WAL does real I/O even under simulation).
	HistWALAppend = "wal:append"
	HistWALFsync  = "wal:fsync"

	// HistReplShip is the primary-observed replication lag: the time one
	// shipped batch of journal records takes to reach the backup and be
	// acknowledged (network round trip + apply).
	HistReplShip = "repl:ship"
)

// Gauge names (metrics.Registry).
const (
	GaugeTasksPending     = "master:tasks_pending"     // task entries sitting in the space
	GaugeTasksInFlight    = "master:tasks_inflight"    // taken by a worker, result not yet collected
	GaugeTasksPlanned     = "master:tasks_planned"     // tasks written since start
	GaugeResultsCollected = "master:results_collected" // results aggregated since start
	GaugeWorkersRunning   = "cluster:workers_running"  // workers currently in the Running state
	GaugeTopologyEpoch    = "reshard:topology_epoch"   // ring topology epoch (0 until first reshard)

	// Flight recorder (internal/obs). Depth/dropped mirror what /healthz
	// reports; clk is the causal clock's latest Lamport stamp.
	GaugeFlightDepth   = "flight:depth"
	GaugeFlightDropped = "flight:dropped"
	GaugeFlightClk     = "flight:clk"
)

// HistShardServe names shard i's server-side space-op service time
// (queueing at the service gate included).
func HistShardServe(i int) string { return fmt.Sprintf("shard%d:serve", i) }

// GaugeShardOps names shard i's served-operation count (the count of the
// HistShardServe histogram, exported as a rate-able counter).
func GaugeShardOps(i int) string { return fmt.Sprintf("shard%d:ops", i) }

// The gauges below read shard i's serving node at scrape time, so they
// follow a promotion, restart or split; a retired position reads 0, as on
// /healthz.

// GaugeShardEntries names shard i's live tuple count.
func GaugeShardEntries(i int) string { return fmt.Sprintf("shard%d:entries", i) }

// GaugeShardDeadEntries names shard i's removed tuples whose pointer a
// store list still holds.
func GaugeShardDeadEntries(i int) string { return fmt.Sprintf("shard%d:dead_entries", i) }

// GaugeShardMemoEntries names shard i's exactly-once memo table size.
func GaugeShardMemoEntries(i int) string { return fmt.Sprintf("shard%d:memo_entries", i) }

// GaugeShardDedupHits names shard i's memo-table dedup answers.
func GaugeShardDedupHits(i int) string { return fmt.Sprintf("shard%d:dedup_hits", i) }

// GaugeShardWALPosition names shard i's write-ahead log position (0 when
// memory-only).
func GaugeShardWALPosition(i int) string { return fmt.Sprintf("shard%d:wal_position", i) }

// GaugeReplRole names shard i's serving role: 1 when the original primary
// still serves, 2 once its backup has been promoted.
func GaugeReplRole(i int) string { return fmt.Sprintf("repl:shard%d:role", i) }

// GaugeReplEpoch names shard i's current replication epoch.
func GaugeReplEpoch(i int) string { return fmt.Sprintf("repl:shard%d:epoch", i) }

// GaugeReplLag names shard i's replication lag in journal records — how
// many appended records the backup has not yet acknowledged.
func GaugeReplLag(i int) string { return fmt.Sprintf("repl:shard%d:lag", i) }
