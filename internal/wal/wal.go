// Package wal implements the crash-safe on-disk log behind the durable
// space service. The paper's master–worker protocol assumes the task bag
// is a persistent JavaSpace (Outrigger's persistent mode): a killed space
// server restarts and the job carries on. This package supplies the
// storage half of that property.
//
// Layout: a directory of size-capped segment files `wal-%08d.seg` plus at
// most one live snapshot `snap-%08d.snap`. Every record — in segments and
// snapshots alike — is framed as
//
//	uint32 LE  payload length
//	uint32 LE  CRC32C (Castagnoli) of the payload
//	payload
//
// so a torn final write (crash mid-append) is detected by length or
// checksum mismatch and truncated away on open. Corruption anywhere but
// the tail of the last segment is not self-inflicted by a crash and is
// reported as an error instead of silently dropped.
//
// A snapshot with boundary B captures the full live state as of segment
// B's creation: segments with index < B are deleted (compaction) and
// recovery replays only the snapshot plus segments >= B.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gospaces/internal/metrics"
)

// FsyncPolicy selects when appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at one fsync per operation. The zero value, because
	// durability should be opt-out, not opt-in.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs lazily: an append syncs only if 100 ms
	// (DefaultFsyncEvery) have elapsed since the last sync (and on
	// rotation, snapshot and close). Bounded loss window, amortised cost.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache. Fastest; a host
	// crash may lose recently acknowledged records. Process crashes
	// still lose nothing.
	FsyncNever
)

// String returns the flag-friendly name of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

const (
	// DefaultSegmentSize is the segment cap a zero SegmentSize selects.
	DefaultSegmentSize = 1 << 20 // 1 MiB
	// DefaultFsyncEvery is FsyncInterval's lazy-sync interval.
	DefaultFsyncEvery = 100 * time.Millisecond

	// maxRecordSize bounds a single record; a length prefix beyond it is
	// treated as frame corruption rather than an allocation request.
	maxRecordSize = 64 << 20
)

// Counter keys published to Options.Counters. The strings are owned by
// the canonical metric-name set in internal/metrics/names.go; these
// aliases keep call sites and tests reading naturally.
const (
	CounterRecords           = metrics.CounterWALRecords           // records appended
	CounterSegments          = metrics.CounterWALSegments          // segment files created
	CounterSnapshots         = metrics.CounterWALSnapshots         // snapshots written
	CounterSegmentsCompacted = metrics.CounterWALSegmentsCompacted // segments deleted behind a snapshot
	CounterAppendErrors      = metrics.CounterWALAppendErrors      // failed appends
	CounterSnapshotRestored  = metrics.CounterWALSnapshotRestored  // records restored from the snapshot on open
	CounterTailRestored      = metrics.CounterWALTailRestored      // records replayed from post-snapshot segments on open
	CounterTruncatedBytes    = metrics.CounterWALTruncatedBytes    // torn tail bytes discarded on open
	CounterRecoveryMs        = metrics.CounterWALRecoveryMs        // wall-clock milliseconds spent in Open
)

// Options configures a Log. The zero value is usable: 1 MiB segments,
// fsync on every append, no counters.
type Options struct {
	// SegmentSize caps a segment file; an append that would exceed it
	// rotates to a fresh segment first.
	SegmentSize int64
	// Fsync selects the sync policy.
	Fsync FsyncPolicy
	// Counters, when non-nil, receives the wal:* counters above.
	Counters *metrics.Counters
	// WrapWriter, when non-nil, wraps each segment's writer — the hook
	// the fault layer uses to inject disk write errors. Syncing still
	// targets the underlying file.
	WrapWriter func(io.Writer) io.Writer
	// AppendHist / SyncHist, when non-nil, receive the wall-clock latency
	// of each Append (rotation + framing + write) and each fsync. These
	// are real disk times even under a virtual clock — the log does real
	// I/O regardless of how the cluster's time is modeled.
	AppendHist *metrics.Histogram
	SyncHist   *metrics.Histogram
	// OnEvent, when non-nil, receives log lifecycle notifications for the
	// cluster flight recorder: kind "rotate" after a segment rotation,
	// "snapshot" after a snapshot lands. May be invoked with the log's
	// mutex held — it must not block or call back into the log.
	OnEvent func(kind, detail string)
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	return o
}

// Recovery describes what Open reconstructed from disk.
type Recovery struct {
	// SnapshotRecords are the full-state records from the newest
	// snapshot, in capture order (nil when no snapshot exists).
	SnapshotRecords [][]byte
	// Records are the log records replayed from segments at or after the
	// snapshot boundary, in append order.
	Records [][]byte
	// Segments is how many segment files were replayed.
	Segments int
	// TruncatedBytes counts torn-tail bytes discarded from the last
	// segment.
	TruncatedBytes int64
	// FromSnapshot reports whether a snapshot participated in recovery.
	FromSnapshot bool
	// Elapsed is the wall-clock time Open spent scanning and reading.
	Elapsed time.Duration
}

// Log is an append-only segmented record log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File  // current segment file
	w        io.Writer // possibly wrapped view of f
	idx      uint64    // current segment index
	size     int64     // bytes in current segment
	boundary uint64    // newest snapshot boundary (0 = none)
	unsynced int64     // bytes appended since last sync
	lastSync time.Time // last sync (FsyncInterval)
	sinceSnp int64     // bytes appended since last snapshot
	pos      uint64    // records in the log's history (recovered + appended)
	buf      []byte    // the frame being written, reused by the next Append
	closed   bool
}

// keepFrame is the largest frame buffer a Log keeps for its next Append;
// one large record does not pin its size for the log's lifetime.
const keepFrame = 64 << 10

// appendFrame appends payload's frame — length, checksum, payload — to b.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(idx uint64) string  { return fmt.Sprintf("wal-%08d.seg", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%08d.snap", idx) }

func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var idx uint64
	if _, err := fmt.Sscanf(mid, "%d", &idx); err != nil || idx == 0 {
		return 0, false
	}
	return idx, true
}

// Open opens (or creates) the log in dir, recovering existing state: it
// loads the newest snapshot, replays segments at or after its boundary
// with torn-tail truncation on the final segment, and leaves the log
// positioned to append. The returned Recovery holds the records the
// caller should replay into its in-memory state.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Leftover from a crash mid-snapshot: never committed.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if idx, ok := parseName(name, "wal-", ".seg"); ok {
			segs = append(segs, idx)
		}
		if idx, ok := parseName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	l := &Log{dir: dir, opts: opts}
	rec := &Recovery{}

	// Newest snapshot wins; older ones are leftovers from interrupted
	// compaction.
	if len(snaps) > 0 {
		l.boundary = snaps[len(snaps)-1]
		records, _, err := readRecords(filepath.Join(dir, snapName(l.boundary)), false)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: snapshot %d: %w", l.boundary, err)
		}
		rec.SnapshotRecords = records
		rec.FromSnapshot = true
		for _, old := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(dir, snapName(old)))
		}
	}

	// Replay segments at or after the boundary; drop ones wholly behind
	// it (leftovers from interrupted compaction).
	var retained int64
	for i, idx := range segs {
		path := filepath.Join(dir, segName(idx))
		if idx < l.boundary {
			os.Remove(path)
			continue
		}
		last := i == len(segs)-1
		records, truncated, err := readRecords(path, last)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %d: %w", idx, err)
		}
		rec.Records = append(rec.Records, records...)
		rec.TruncatedBytes += truncated
		rec.Segments++
		if st, err := os.Stat(path); err == nil {
			retained += st.Size()
		}
	}

	// Position for appending: continue the last segment, or start fresh.
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1]
	}
	if err := l.openSegment(next, len(segs) > 0); err != nil {
		return nil, nil, err
	}
	l.sinceSnp = retained
	l.pos = uint64(len(rec.SnapshotRecords) + len(rec.Records))

	rec.Elapsed = time.Since(start)
	if c := opts.Counters; c != nil {
		c.AddN(CounterSnapshotRestored, uint64(len(rec.SnapshotRecords)))
		c.AddN(CounterTailRestored, uint64(len(rec.Records)))
		c.AddN(CounterTruncatedBytes, uint64(rec.TruncatedBytes))
		c.AddN(CounterRecoveryMs, uint64(rec.Elapsed.Milliseconds()))
	}
	return l, rec, nil
}

// readRecords reads every well-framed record in path. With truncateTail
// set (the last segment), a torn final frame is cut off the file and the
// records before it returned; otherwise any framing error is fatal.
func readRecords(path string, truncateTail bool) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var records [][]byte
	off := 0
	for off < len(data) {
		valid := false
		if len(data)-off >= 8 {
			n := binary.LittleEndian.Uint32(data[off:])
			sum := binary.LittleEndian.Uint32(data[off+4:])
			if n <= maxRecordSize && off+8+int(n) <= len(data) {
				payload := data[off+8 : off+8+int(n)]
				if crc32.Checksum(payload, crcTable) == sum {
					records = append(records, append([]byte(nil), payload...))
					off += 8 + int(n)
					valid = true
				}
			}
		}
		if !valid {
			torn := int64(len(data) - off)
			if !truncateTail {
				return nil, 0, fmt.Errorf("corrupt record at offset %d", off)
			}
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, 0, fmt.Errorf("truncating torn tail: %w", err)
			}
			return records, torn, nil
		}
	}
	return records, 0, nil
}

// openSegment opens segment idx for appending, creating it if resume is
// false. Caller must not hold l.mu concurrently with appends (used from
// Open and rotation paths that already hold it).
func (l *Log) openSegment(idx uint64, resume bool) error {
	flags := os.O_WRONLY | os.O_APPEND | os.O_CREATE
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)), flags, 0o644)
	if err != nil {
		return fmt.Errorf("wal: segment %d: %w", idx, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %d: %w", idx, err)
	}
	l.f, l.idx, l.size = f, idx, st.Size()
	l.w = io.Writer(f)
	if l.opts.WrapWriter != nil {
		l.w = l.opts.WrapWriter(f)
	}
	if !resume {
		if err := syncDir(l.dir); err != nil {
			return err
		}
		if c := l.opts.Counters; c != nil {
			c.Inc(CounterSegments)
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append frames payload and appends it to the log, rotating segments and
// syncing per the configured policy. The error (if any) must reach the
// caller that believes the record durable — the space journal does
// exactly that. The log keeps nothing of payload: it is framed into a
// buffer the log reuses, and written out before Append returns.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h := l.opts.AppendHist; h != nil {
		start := time.Now()
		defer func() { h.Record(time.Since(start)) }()
	}
	if l.closed {
		return errors.New("wal: append to closed log")
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordSize)
	}
	frame := int64(8 + len(payload))
	if l.size > 0 && l.size+frame > l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			return l.countErr(err)
		}
	}
	l.buf = appendFrame(l.buf[:0], payload)
	_, err := l.w.Write(l.buf)
	if cap(l.buf) > keepFrame {
		l.buf = nil
	}
	if err != nil {
		return l.countErr(fmt.Errorf("wal: append: %w", err))
	}
	l.size += frame
	l.sinceSnp += frame
	l.unsynced += frame
	l.pos++
	if err := l.maybeSyncLocked(); err != nil {
		return l.countErr(err)
	}
	if c := l.opts.Counters; c != nil {
		c.Inc(CounterRecords)
	}
	return nil
}

func (l *Log) countErr(err error) error {
	if c := l.opts.Counters; c != nil {
		c.Inc(CounterAppendErrors)
	}
	return err
}

// maybeSyncLocked applies the fsync policy after an append.
func (l *Log) maybeSyncLocked() error {
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncInterval:
		// Lazy: sync piggybacks on the next append once the interval
		// has elapsed — no background goroutine to interfere with the
		// deterministic virtual-clock harness.
		if time.Since(l.lastSync) >= DefaultFsyncEvery {
			return l.syncLocked()
		}
	case FsyncNever:
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if h := l.opts.SyncHist; h != nil {
		h.Record(time.Since(start))
	}
	l.unsynced = 0
	l.lastSync = time.Now()
	return nil
}

// rotateLocked syncs and closes the current segment and starts the next.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.openSegment(l.idx+1, false); err != nil {
		return err
	}
	if l.opts.OnEvent != nil {
		l.opts.OnEvent("rotate", fmt.Sprintf("segment %d", l.idx))
	}
	return nil
}

// Sync forces buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// SizeSinceSnapshot reports bytes appended since the last snapshot (or
// open) — the quantity a caller thresholds to trigger compaction.
func (l *Log) SizeSinceSnapshot() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnp
}

// Segment returns the index of the segment currently being appended.
func (l *Log) Segment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.idx
}

// Position is the log's record position: records restored at open plus
// records appended since. It is the per-shard "how far has the log
// advanced" figure the replication layer and /healthz report; snapshots
// and compaction do not rewind it.
func (l *Log) Position() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Snapshot checkpoints the log: it rotates to a fresh segment, calls
// capture for the owner's full live state (without holding the log lock,
// so appends — which take the owner's lock — cannot deadlock against it),
// writes the state durably as the new snapshot, and deletes every segment
// wholly behind it. Records appended during capture land at or after the
// boundary segment and replay idempotently over the snapshot.
func (l *Log) Snapshot(capture func() ([][]byte, error)) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: snapshot of closed log")
	}
	if err := l.rotateLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	boundary := l.idx
	l.mu.Unlock()

	records, err := capture()
	if err != nil {
		return fmt.Errorf("wal: snapshot capture: %w", err)
	}

	tmp := filepath.Join(l.dir, snapName(boundary)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	var buf []byte
	for _, payload := range records {
		buf = appendFrame(buf[:0], payload)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: snapshot: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName(boundary))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.boundary
	l.boundary = boundary
	l.sinceSnp = l.size
	// Compaction: everything wholly behind the new snapshot goes.
	// Segments behind the previous boundary were deleted last time.
	compacted := uint64(0)
	first := prev
	if first == 0 {
		first = 1
	}
	for idx := first; idx < boundary; idx++ {
		if os.Remove(filepath.Join(l.dir, segName(idx))) == nil {
			compacted++
		}
	}
	if prev != 0 && prev != boundary {
		os.Remove(filepath.Join(l.dir, snapName(prev)))
	}
	if c := l.opts.Counters; c != nil {
		c.Inc(CounterSnapshots)
		c.AddN(CounterSegmentsCompacted, compacted)
	}
	if l.opts.OnEvent != nil {
		l.opts.OnEvent("snapshot", fmt.Sprintf("boundary %d, %d segments compacted", boundary, compacted))
	}
	return nil
}

// Close syncs and closes the current segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
