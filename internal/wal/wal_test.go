package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gospaces/internal/metrics"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	return l, rec
}

func record(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != 0 || rec.FromSnapshot {
		t.Fatalf("fresh dir recovered %d records (snapshot=%v)", len(rec.Records), rec.FromSnapshot)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != 20 {
		t.Fatalf("recovered %d records, want 20", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if !bytes.Equal(r, record(i)) {
			t.Fatalf("record %d = %q, want %q (order must be append order)", i, r, record(i))
		}
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", rec2.TruncatedBytes)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Frame overhead is 8 bytes; records are 11 bytes → 19 per frame.
	// A 64-byte cap fits three frames per segment.
	l, _ := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 10; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := l.Segment(); got < 3 {
		t.Fatalf("after 10 appends at 3/segment, current segment = %d, want >= 3", got)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 4 {
		t.Fatalf("found %d segment files, want >= 4: %v", len(segs), segs)
	}
	l2, rec := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close()
	if len(rec.Records) != 10 {
		t.Fatalf("multi-segment recovery got %d records, want 10", len(rec.Records))
	}
	if rec.Segments != len(segs) {
		t.Fatalf("replayed %d segments, found %d files", rec.Segments, len(segs))
	}
}

// TestTornTailTruncated is the acceptance criterion "a WAL with a torn
// final record recovers by truncation": bytes of a half-written frame at
// the tail are discarded, every record before them survives.
func TestTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(full []byte) []byte
	}{
		{"half-header", func(b []byte) []byte { return b[:len(b)-15] }},
		{"half-payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"corrupt-crc", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{})
			for i := 0; i < 5; i++ {
				if err := l.Append(record(i)); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			l.Close()

			seg := filepath.Join(dir, segName(1))
			full, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear.cut(full), 0o644); err != nil {
				t.Fatal(err)
			}

			c := metrics.NewCounters()
			l2, rec := mustOpen(t, dir, Options{Counters: c})
			if len(rec.Records) != 4 {
				t.Fatalf("recovered %d records, want 4 (last torn off)", len(rec.Records))
			}
			if rec.TruncatedBytes == 0 || c.Get(CounterTruncatedBytes) == 0 {
				t.Fatal("torn tail not reported in Recovery/counters")
			}
			// The tear must be gone from disk: appending and re-reading
			// yields the four survivors plus the new record.
			if err := l2.Append([]byte("after-tear")); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			l2.Close()
			_, rec3 := mustOpen(t, dir, Options{})
			if len(rec3.Records) != 5 || !bytes.Equal(rec3.Records[4], []byte("after-tear")) {
				t.Fatalf("post-truncation log replays %d records (last %q)", len(rec3.Records), rec3.Records[len(rec3.Records)-1])
			}
		})
	}
}

// Corruption that is not at the tail of the last segment cannot be a torn
// write — refusing to serve is the only honest answer.
func TestMidLogCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 9; i++ { // 3 full segments
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip a payload byte in the FIRST segment.
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{SegmentSize: 64}); err == nil {
		t.Fatal("mid-log corruption silently accepted")
	}
}

// TestSnapshotCompaction covers the tentpole's snapshot semantics and the
// acceptance criterion "recovery after a snapshot replays only
// post-snapshot segments (asserted via metrics)".
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 9; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot captures a condensed state: pretend only two records are
	// live.
	state := [][]byte{[]byte("live-a"), []byte("live-b")}
	if err := l.Snapshot(func() ([][]byte, error) { return state, nil }); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Pre-snapshot segments must be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		var idx uint64
		fmt.Sscanf(filepath.Base(s), "wal-%d.seg", &idx)
		if idx < l.Segment() {
			t.Fatalf("segment %s survived compaction (boundary %d)", s, l.Segment())
		}
	}
	// Post-snapshot appends land after the boundary.
	if err := l.Append([]byte("tail-1")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	c := metrics.NewCounters()
	l2, rec := mustOpen(t, dir, Options{SegmentSize: 64, Counters: c})
	defer l2.Close()
	if !rec.FromSnapshot {
		t.Fatal("recovery ignored the snapshot")
	}
	if len(rec.SnapshotRecords) != 2 {
		t.Fatalf("snapshot records = %d, want 2", len(rec.SnapshotRecords))
	}
	// Only the post-snapshot tail replays: exactly one record, and the
	// metrics agree — the assertion the acceptance criteria call for.
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], []byte("tail-1")) {
		t.Fatalf("tail replay = %q, want only the post-snapshot record", rec.Records)
	}
	if got := c.Get(CounterTailRestored); got != 1 {
		t.Fatalf("%s = %d, want 1 (pre-snapshot records replayed?)", CounterTailRestored, got)
	}
	if got := c.Get(CounterSnapshotRestored); got != 2 {
		t.Fatalf("%s = %d, want 2", CounterSnapshotRestored, got)
	}
}

func TestSnapshotDuringAppends(t *testing.T) {
	// Records appended while the snapshot captures must survive recovery
	// (they land at or after the boundary segment).
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	err := l.Snapshot(func() ([][]byte, error) {
		// Concurrent append during capture.
		if err := l.Append([]byte("during")); err != nil {
			return nil, err
		}
		return [][]byte{[]byte("state")}, nil
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.SnapshotRecords) != 1 || len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], []byte("during")) {
		t.Fatalf("snapshot=%q tail=%q, want state + during", rec.SnapshotRecords, rec.Records)
	}
}

type failWriter struct {
	w     io.Writer
	fail  bool
	count int
}

func (fw *failWriter) Write(b []byte) (int, error) {
	if fw.fail {
		fw.count++
		return 0, errors.New("disk on fire")
	}
	return fw.w.Write(b)
}

func TestAppendErrorSurfacesAndCounts(t *testing.T) {
	dir := t.TempDir()
	fw := &failWriter{}
	c := metrics.NewCounters()
	l, _ := mustOpen(t, dir, Options{
		Counters:   c,
		WrapWriter: func(w io.Writer) io.Writer { fw.w = w; return fw },
	})
	defer l.Close()
	if err := l.Append([]byte("ok")); err != nil {
		t.Fatalf("append: %v", err)
	}
	fw.fail = true
	if err := l.Append([]byte("lost")); err == nil {
		t.Fatal("failed disk write acked")
	}
	fw.fail = false
	if err := l.Append([]byte("again")); err != nil {
		t.Fatalf("append after failure: %v", err)
	}
	if got := c.Get(CounterAppendErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", CounterAppendErrors, got)
	}
	if got := c.Get(CounterRecords); got != 2 {
		t.Fatalf("%s = %d, want 2", CounterRecords, got)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "Interval": FsyncInterval, " never ": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
		if _, err := ParseFsyncPolicy(got.String()); err != nil {
			t.Fatalf("String/Parse round trip broken for %v", got)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestFrameFormat(t *testing.T) {
	// The on-disk frame is a stable format: length LE32, CRC32C LE32,
	// payload. Verify against an independently computed frame.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	payload := []byte("stable-format")
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(want, uint32(len(payload)))
	binary.LittleEndian.PutUint32(want[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(want[8:], payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame bytes\n got %x\nwant %x", got, want)
	}
}

// TestAppendBorrowsPayload: a journal hands Append a payload it reuses for
// the next record, so the log keeps nothing of it past the call. Every
// record here is appended from one buffer, overwritten between appends,
// and the log still replays each as it was.
func TestAppendBorrowsPayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever})
	var buf []byte
	for i := 0; i < 20; i++ {
		buf = append(buf[:0], record(i)...)
		if err := l.Append(buf); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		copy(buf, "XXXXXXXXXXXXXXXX")
	}
	big := bytes.Repeat([]byte{'b'}, 2*keepFrame) // past what the log keeps for reuse
	if err := l.Append(big); err != nil {
		t.Fatal(err)
	}
	buf = append(buf[:0], record(20)...)
	if err := l.Append(buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 22 {
		t.Fatalf("recovered %d records, want 22", len(rec.Records))
	}
	for i, r := range rec.Records {
		want := record(i)
		switch {
		case i == 20:
			want = bytes.Repeat([]byte{'b'}, 2*keepFrame)
		case i == 21:
			want = record(20)
		}
		if !bytes.Equal(r, want) {
			t.Fatalf("record %d = %.40q, want %.40q", i, r, want)
		}
	}
}
