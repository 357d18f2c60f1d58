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
//     RecordSink into one buffer, each behind a uvarint length, and
//     streamed to the backup over the transport as replica.Append
//     batches: the buffer's prefix as one byte string, never re-encoded.
//     In sync mode (the default) a mutating space
//     operation acknowledges only after the backup confirms its records;
//     in async mode the pump ships the queue in the background and the
//     loss window is bounded by the heartbeat interval.
//   - The backup checks a batch's whole framing before it applies any of
//     it, then applies each record to its own live tuplespace through
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
//     (replica.Sync carries the full EncodeState as a batch of the same
//     form) followed by the incremental tail — the same records, so
//     catch-up and steady-state share one batch walker and one apply path.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gospaces/internal/enc"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
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

// appendArgs ships the queued journal records [From .. From+N-1] as one
// batch: the primary's queue, as it stands, on the wire.
type appendArgs struct {
	Epoch uint64
	From  uint64 // sequence number of the batch's first record
	N     uint64 // records in Batch
	// Batch is N records, each a uvarint length and that many bytes. The
	// backup reads it in place, in the request frame, and its applier
	// copies what it stores: a shipped entry is copied once there.
	Batch enc.View
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

// syncArgs pushes the primary's full live state (EncodeState records) in
// the batch form appendArgs uses; after applying, the backup's position is
// Seq.
type syncArgs struct {
	Epoch uint64
	Seq   uint64
	N     uint64
	Batch enc.View // as appendArgs.Batch
}

// errBatch refuses a batch whose framing is not N records and nothing
// more. Nothing of it is applied.
var errBatch = errors.New("replica: malformed batch")

// appendRecord appends rec to batch behind its uvarint length.
func appendRecord(batch, rec []byte) []byte {
	return append(binary.AppendUvarint(batch, uint64(len(rec))), rec...)
}

// nextRecord splits batch's first record from the rest; ok is false when
// the length prefix is unreadable or claims more than the bytes left.
func nextRecord(batch []byte) (rec, rest []byte, ok bool) {
	size, k := binary.Uvarint(batch)
	if k <= 0 || size > uint64(len(batch)-k) {
		return nil, nil, false
	}
	end := k + int(size)
	return batch[k:end], batch[end:], true
}

// checkBatch verifies that batch frames exactly n records: every prefix
// within the bytes left, nothing after the last. Each record takes at
// least its one-byte prefix, so a lying n costs at most len(batch) steps.
func checkBatch(n uint64, batch []byte) error {
	for i := uint64(0); i < n; i++ {
		var ok bool
		if _, batch, ok = nextRecord(batch); !ok {
			return fmt.Errorf("%w: record %d of %d overruns the batch", errBatch, i, n)
		}
	}
	if len(batch) != 0 {
		return fmt.Errorf("%w: %d bytes after %d records", errBatch, len(batch), n)
	}
	return nil
}

// applyBatch applies the records of a batch checkBatch accepted, after
// walking past the first skip one at a time, and returns how many it
// applied. The first record that fails stops it; the ones before stay
// applied, and the count says so.
func applyBatch(ap *tuplespace.Applier, batch []byte, skip uint64) (uint64, error) {
	var applied uint64
	for i := uint64(0); len(batch) > 0; i++ {
		rec, rest, _ := nextRecord(batch)
		batch = rest
		if i < skip {
			continue
		}
		if err := ap.Apply(rec); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
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
