package space

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

// DefaultSnapshotBytes is the WAL growth between automatic snapshots.
const DefaultSnapshotBytes = 4 << 20

// DurableOptions configures a durable local space.
type DurableOptions struct {
	// Dir is the data directory holding WAL segments and snapshots.
	Dir string
	// Fsync is the WAL sync policy (default: always).
	Fsync wal.FsyncPolicy
	// SegmentSize caps WAL segment files (default wal.DefaultSegmentSize).
	SegmentSize int64
	// SnapshotBytes triggers a background snapshot + compaction once the
	// WAL has grown by this much since the last one. Zero means
	// DefaultSnapshotBytes; negative disables automatic snapshots.
	SnapshotBytes int64
	// Strict is ignored: a journal failure always surfaces as the space
	// operation's error, and nothing is acknowledged that was not logged.
	// The field stays only until bench/ stops setting it.
	Strict bool
	// Counters, when non-nil, receives wal:* and journal:errors counts.
	Counters *metrics.Counters
	// WrapWriter optionally wraps the WAL's segment writer — the fault
	// layer's disk-error injection hook.
	WrapWriter func(io.Writer) io.Writer
	// AppendHist / SyncHist, when non-nil, receive per-append and
	// per-fsync WAL latencies (see wal.Options).
	AppendHist *metrics.Histogram
	SyncHist   *metrics.Histogram
	// Tee, when non-nil, additionally receives every journal payload
	// after it is safely in the WAL — the replication layer's tap: the
	// records the log stores are exactly the ones shipped to the backup.
	// Like the journal itself it is invoked under the space mutex, so it
	// must not block.
	Tee tuplespace.RecordSink
	// OnWALEvent forwards the log's lifecycle notifications ("rotate",
	// "snapshot" — see wal.Options.OnEvent) to the cluster flight
	// recorder. Must not block.
	OnWALEvent func(kind, detail string)
}

// RecoveryInfo describes what a durable space reconstructed on open.
type RecoveryInfo struct {
	// Restored is the number of live entries recovered into the space.
	Restored int
	// SnapshotRecords and TailRecords are the record counts read from
	// the snapshot and from post-snapshot segments respectively.
	SnapshotRecords int
	TailRecords     int
	// Segments is how many WAL segment files were replayed.
	Segments int
	// TruncatedBytes counts torn-tail bytes discarded.
	TruncatedBytes int64
	// Elapsed is the wall-clock time spent recovering (disk + replay).
	Elapsed time.Duration
}

// Durable is the persistence controller paired with a durable Local —
// the handle through which the owner snapshots, inspects recovery, and
// shuts the log down.
type Durable struct {
	log           *wal.Log
	ts            *tuplespace.Space
	info          RecoveryInfo
	snapshotBytes int64
	tee           tuplespace.RecordSink

	snapping atomic.Bool
	mu       sync.Mutex // guards closed against wg.Add/wg.Wait races
	closed   bool
	wg       sync.WaitGroup
}

// NewLocalDurable opens (or creates) the durable space stored in
// opts.Dir: it recovers the newest snapshot plus the WAL tail into a
// fresh space — truncating any torn final record; each entry keeps its
// logged id — takes a recovery snapshot so the replayed segments are
// compacted away, and attaches a journal that appends every public
// mutation to the WAL. The space is fully recovered before this returns;
// serve it only after.
func NewLocalDurable(clock vclock.Clock, opts DurableOptions) (*Local, *Durable, error) {
	start := time.Now()
	wopts := wal.Options{
		SegmentSize: opts.SegmentSize,
		Fsync:       opts.Fsync,
		Counters:    opts.Counters,
		WrapWriter:  opts.WrapWriter,
		AppendHist:  opts.AppendHist,
		SyncHist:    opts.SyncHist,
		OnEvent:     opts.OnWALEvent,
	}
	log, rec, err := wal.Open(opts.Dir, wopts)
	if err != nil {
		return nil, nil, err
	}

	l := NewLocal(clock)
	records := make([][]byte, 0, len(rec.SnapshotRecords)+len(rec.Records))
	records = append(records, rec.SnapshotRecords...)
	records = append(records, rec.Records...)
	restored, err := tuplespace.ReplayRecords(records, l.TS)
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("space: recover %s: %w", opts.Dir, err)
	}

	snapBytes := opts.SnapshotBytes
	if snapBytes == 0 {
		snapBytes = DefaultSnapshotBytes
	}
	d := &Durable{log: log, ts: l.TS, snapshotBytes: snapBytes, tee: opts.Tee}
	l.TS.AttachRecoveredJournal(tuplespace.NewJournalSink(durableSink{d}).SetCounters(opts.Counters))

	// Recovery snapshot: compaction. The recovered state becomes one
	// snapshot and every replayed segment goes, so the next start reads
	// the live entries instead of replaying their history again. A virgin
	// directory has nothing to compact.
	if rec.FromSnapshot || rec.Segments > 0 {
		if err := d.SnapshotNow(); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("space: recovery snapshot %s: %w", opts.Dir, err)
		}
	}

	d.info = RecoveryInfo{
		Restored:        restored,
		SnapshotRecords: len(rec.SnapshotRecords),
		TailRecords:     len(rec.Records),
		Segments:        rec.Segments,
		TruncatedBytes:  rec.TruncatedBytes,
		Elapsed:         time.Since(start),
	}
	return l, d, nil
}

// durableSink routes journal records into the WAL and watches the growth
// threshold.
type durableSink struct{ d *Durable }

// Append implements tuplespace.RecordSink.
func (s durableSink) Append(payload []byte) error {
	if err := s.d.log.Append(payload); err != nil {
		return err
	}
	if t := s.d.tee; t != nil {
		if err := t.Append(payload); err != nil {
			return err
		}
	}
	s.d.maybeSnapshot()
	return nil
}

// maybeSnapshot starts a background snapshot when the WAL has outgrown
// the threshold. It must not snapshot inline: Append runs under the
// space mutex, and the snapshot's state capture needs that same mutex —
// the goroutine simply waits its turn.
func (d *Durable) maybeSnapshot() {
	if d.snapshotBytes <= 0 {
		return
	}
	if d.log.SizeSinceSnapshot() < d.snapshotBytes {
		return
	}
	if !d.snapping.CompareAndSwap(false, true) {
		return // one at a time
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.snapping.Store(false)
		return
	}
	d.wg.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.wg.Done()
		defer d.snapping.Store(false)
		// A snapshot failure is not fatal to the space: the un-compacted
		// log is still complete. The next threshold crossing retries.
		_ = d.log.Snapshot(d.ts.EncodeState)
	}()
}

// SnapshotNow synchronously writes a full-state snapshot and compacts
// segments behind it.
func (d *Durable) SnapshotNow() error {
	return d.log.Snapshot(d.ts.EncodeState)
}

// Info returns what recovery reconstructed when the space was opened.
func (d *Durable) Info() RecoveryInfo { return d.info }

// Log exposes the underlying WAL (diagnostics and tests).
func (d *Durable) Log() *wal.Log { return d.log }

// Close waits for any in-flight snapshot and closes the WAL. Close the
// space (Local.Close) first so no new appends race the shutdown.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.wg.Wait()
	return d.log.Close()
}
