// Package replica adds per-shard primary/backup replication to the space
// service by synchronous WAL log shipping — the availability layer the
// paper's single space server lacks (PR 3 made a crashed shard
// recoverable from its log; this makes the shard survive the crash
// without an operator).
//
// The protocol:
//
//   - The primary's journal records (the same self-contained records the
//     durable WAL stores) are enqueued, in order, by an enqueue-only
//     RecordSink and streamed to the backup over the transport as
//     replica.Append batches. In sync mode (the default) a mutating space
//     operation acknowledges only after the backup confirms its records;
//     in async mode the pump ships the queue in the background and the
//     loss window is bounded by the heartbeat interval.
//   - The backup applies each record to its own live tuplespace through
//     tuplespace.Applier, so it is hot: promotion is a role flip, not a
//     replay.
//   - Failure detection is two-fold: the backup watches the heartbeat
//     stream (transport-level detection) and, optionally, the primary's
//     lookup-service lease (registration expiry). Either firing promotes
//     the backup: it bumps the epoch, re-registers under the shard's ring
//     position, and starts serving.
//   - Epochs fence the deposed primary: every replication RPC carries the
//     sender's epoch, and a receiver at a higher epoch rejects it with
//     ErrFenced. A fenced primary stops acknowledging mutations, which
//     closes the split-brain window sync replication leaves open.
//   - A diverged or returning replica catches up by snapshot push
//     (replica.Sync carries the full EncodeState) followed by the
//     incremental tail — the same records, so catch-up and steady-state
//     share one apply path.
package replica

import (
	"errors"
	"fmt"

	"gospaces/internal/transport"
)

// RPC method names. The backup binds these on its server; the primary's
// shipper calls them.
const (
	methodAppend    = "replica.Append"
	methodHeartbeat = "replica.Heartbeat"
	methodSync      = "replica.Sync"
)

// AckMode selects when a mutating operation on the primary acknowledges.
type AckMode int

const (
	// AckSync acknowledges after the backup confirmed the operation's
	// journal records — no acknowledged write is lost by a failover.
	AckSync AckMode = iota
	// AckAsync acknowledges immediately; the pump ships records in the
	// background. A failover can lose up to one heartbeat interval of
	// acknowledged mutations.
	AckAsync
)

// String implements fmt.Stringer.
func (m AckMode) String() string {
	if m == AckAsync {
		return "async"
	}
	return "sync"
}

// ParseAckMode parses "sync" or "async" (the cmd flag values).
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "", "sync":
		return AckSync, nil
	case "async":
		return AckAsync, nil
	default:
		return AckSync, fmt.Errorf("replica: unknown ack mode %q (want sync or async)", s)
	}
}

var (
	// ErrFenced rejects a replication request (or, on a deposed primary,
	// a client mutation) whose epoch is behind the receiver's: a newer
	// primary exists, and acting on the request would split the brain.
	ErrFenced = errors.New("replica: fenced: a newer epoch holds this shard")
	// ErrOutOfSync reports that the incremental stream cannot continue
	// (the backup is missing records); the primary must re-sync by
	// snapshot push.
	ErrOutOfSync = errors.New("replica: stream out of sync")
	// ErrUnavailable fails a sync-mode mutation whose records could not
	// be confirmed by the backup: consistency over availability — nothing
	// is acknowledged that a failover could lose.
	ErrUnavailable = errors.New("replica: backup unreachable, mutation not replicated")
)

// appendArgs ships the queued journal records [From .. From+len-1].
type appendArgs struct {
	Epoch   uint64
	From    uint64 // sequence number of Records[0]
	Records [][]byte
}

// appendReply confirms application up to (and including) Applied.
type appendReply struct {
	Applied uint64
}

// heartbeatArgs is the idle-stream liveness probe; Seq is the primary's
// latest enqueued sequence number so the backup can measure lag.
type heartbeatArgs struct {
	Epoch uint64
	Seq   uint64
}

// syncArgs pushes the primary's full live state (EncodeState records);
// after applying, the backup's position is Seq.
type syncArgs struct {
	Epoch   uint64
	Seq     uint64
	Records [][]byte
}

func init() {
	transport.RegisterType(appendArgs{})
	transport.RegisterType(appendReply{})
	transport.RegisterType(heartbeatArgs{})
	transport.RegisterType(syncArgs{})
	// A replication RPC's caller gets these back as themselves (append
	// only: a sentinel's code is its position here).
	transport.RegisterErrors(transport.ReplicaErrors, ErrFenced, ErrOutOfSync)
}
