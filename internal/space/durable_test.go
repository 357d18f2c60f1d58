package space

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gospaces/internal/faults"
	"gospaces/internal/metrics"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
	"gospaces/internal/wal"
)

func openDurable(t *testing.T, dir string, opts DurableOptions) (*Local, *Durable) {
	t.Helper()
	opts.Dir = dir
	l, d, err := NewLocalDurable(vclock.NewReal(), opts)
	if err != nil {
		t.Fatalf("NewLocalDurable(%s): %v", dir, err)
	}
	return l, d
}

// TestDurableCrashRestart is the stack-level crash test: entries written
// to a durable space survive an abrupt stop (no clean close) and a
// restart from the same data directory.
func TestDurableCrashRestart(t *testing.T) {
	dir := t.TempDir()
	l1, _ := openDurable(t, dir, DurableOptions{})
	for i := 1; i <= 5; i++ {
		if _, err := l1.Write(job{Name: "crash", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := l1.Take(job{Name: "crash"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: neither the space nor the Durable is closed. FsyncAlways
	// (the default) means every acknowledged record is already on disk.

	l2, d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if got := d2.Info().Restored; got != 3 {
		t.Fatalf("restored %d entries, want 3", got)
	}
	if n, _ := l2.Count(job{Name: "crash"}); n != 3 {
		t.Fatalf("count after restart = %d, want 3", n)
	}
	// The recovered space keeps persisting: drain, restart, empty.
	if _, err := l2.TakeAll(job{Name: "crash"}, nil, 0); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	d2.Close()

	l3, d3 := openDurable(t, dir, DurableOptions{})
	defer d3.Close()
	if n, _ := l3.Count(job{Name: "crash"}); n != 0 {
		t.Fatalf("count after drain+restart = %d, want 0", n)
	}
}

// TestDurableTornTailRecovers: a crash mid-append leaves a half-written
// final record; the stack recovers everything before it by truncation.
func TestDurableTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	l1, _ := openDurable(t, dir, DurableOptions{})
	for i := 1; i <= 4; i++ {
		if _, err := l1.Write(job{Name: "torn", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the last record: chop bytes off the only segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, found %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	c := metrics.NewCounters()
	l2, d2 := openDurable(t, dir, DurableOptions{Counters: c})
	defer d2.Close()
	if got := d2.Info().Restored; got != 3 {
		t.Fatalf("restored %d entries, want 3 (torn 4th truncated)", got)
	}
	if d2.Info().TruncatedBytes == 0 || c.Get(wal.CounterTruncatedBytes) == 0 {
		t.Fatal("truncation not surfaced in RecoveryInfo/counters")
	}
	if n, _ := l2.Count(job{Name: "torn"}); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
}

// TestDurableRejectsCorruptLog: damage that is not a torn tail (a flipped
// byte in an early segment) must fail the open, not serve a partial space.
func TestDurableRejectsCorruptLog(t *testing.T) {
	dir := t.TempDir()
	l1, d1 := openDurable(t, dir, DurableOptions{SegmentSize: 256, SnapshotBytes: -1})
	for i := 1; i <= 8; i++ {
		if _, err := l1.Write(job{Name: "corrupt", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	l1.Close()
	d1.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected several segments, found %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewLocalDurable(vclock.NewReal(), DurableOptions{Dir: dir, SegmentSize: 256}); err == nil {
		t.Fatal("mid-log corruption silently accepted")
	}
}

// TestDurableSnapshotBoundsReplay: after a snapshot, recovery replays the
// snapshot plus only post-snapshot records — the metrics-asserted
// acceptance criterion, at the space level.
func TestDurableSnapshotBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	l1, d1 := openDurable(t, dir, DurableOptions{SnapshotBytes: -1})
	// Churn: 50 writes, 40 takes → 90 log records, 10 live entries.
	for i := 0; i < 50; i++ {
		if _, err := l1.Write(job{Name: "churn", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := l1.Take(job{Name: "churn"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Two more mutations after the snapshot.
	if _, err := l1.Write(job{Name: "churn", ID: ip(100)}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Take(job{Name: "churn"}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	d1.Close()

	c := metrics.NewCounters()
	l2, d2 := openDurable(t, dir, DurableOptions{Counters: c})
	defer d2.Close()
	info := d2.Info()
	if info.Restored != 10 {
		t.Fatalf("restored %d, want 10", info.Restored)
	}
	if info.SnapshotRecords != 10 {
		t.Fatalf("snapshot records = %d, want 10 (the live set)", info.SnapshotRecords)
	}
	if info.TailRecords != 2 {
		t.Fatalf("tail records = %d, want 2 — pre-snapshot history replayed", info.TailRecords)
	}
	if got := c.Get(wal.CounterTailRestored); got != 2 {
		t.Fatalf("%s = %d, want 2", wal.CounterTailRestored, got)
	}
	if n, _ := l2.Count(job{Name: "churn"}); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}
}

// TestDurableAutoSnapshotCompacts: crossing the SnapshotBytes threshold
// triggers the background snapshot, which compacts old segments.
func TestDurableAutoSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	c := metrics.NewCounters()
	l1, d1 := openDurable(t, dir, DurableOptions{
		SegmentSize:   512,
		SnapshotBytes: 2048,
		Counters:      c,
	})
	for i := 0; i < 200; i++ {
		if _, err := l1.Write(job{Name: "auto", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
		if _, err := l1.Take(job{Name: "auto", ID: ip(i)}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	l1.Close()
	d1.Close() // waits for any in-flight background snapshot
	if got := c.Get(wal.CounterSnapshots); got == 0 {
		t.Fatal("background snapshot never triggered despite threshold churn")
	}
	if got := c.Get(wal.CounterSegmentsCompacted); got == 0 {
		t.Fatal("snapshots never compacted any segment")
	}
	// All 200 entries were taken: recovery restores none.
	_, d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if got := d2.Info().Restored; got != 0 {
		t.Fatalf("restored %d, want 0 (all entries taken)", got)
	}
}

// TestDurableStrictDiskErrorFailsLoudly wires the fault layer's disk
// injection through the whole stack: a scripted WAL write failure makes
// the space return the injected error and nothing is lost silently — a
// durable space is strict with no option set.
func TestDurableStrictDiskErrorFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	clk := vclock.NewReal()
	plan := faults.NewPlan(1)
	plan.Bind(clk)
	disk := faults.DiskEndpoint("shard0")
	// The 2nd WAL write fails — first entry lands, second is rejected.
	plan.DropNthCall("", disk, faults.MethodDiskWrite, 2)

	c := metrics.NewCounters()
	l, d, err := NewLocalDurable(clk, DurableOptions{
		Dir:        dir,
		Counters:   c,
		WrapWriter: func(w io.Writer) io.Writer { return plan.WrapWriter(disk, w) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := l.Write(job{Name: "strict", ID: ip(1)}, nil, tuplespace.Forever); err != nil {
		t.Fatalf("first write: %v", err)
	}
	_, err = l.Write(job{Name: "strict", ID: ip(2)}, nil, tuplespace.Forever)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("second write error = %v, want the injected disk failure", err)
	}
	if n, _ := l.Count(job{Name: "strict"}); n != 1 {
		t.Fatalf("count = %d, want 1 (unlogged write must not be visible)", n)
	}
	if got := c.Get(tuplespace.CounterJournalErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", tuplespace.CounterJournalErrors, got)
	}
	if got := plan.Counters().Get(faults.EventDrop); got != 1 {
		t.Fatalf("fault layer drop count = %d, want 1", got)
	}
	// Disk healed (rule was nth=2, one-shot): the write goes through and
	// is durable.
	if _, err := l.Write(job{Name: "strict", ID: ip(3)}, nil, tuplespace.Forever); err != nil {
		t.Fatalf("write after injected failure: %v", err)
	}
	l.Close()
	d.Close()
	l2, d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if n, _ := l2.Count(job{Name: "strict"}); n != 2 {
		t.Fatalf("recovered count = %d, want 2 (entries 1 and 3)", n)
	}
}

// TestDurableRefusesLegacyGobLog: a data directory written by a build from
// before the binary record format fails the open with ErrRecordFormat,
// naming the directory and the record — not an empty recovery, and with
// every file left as it was.
func TestDurableRefusesLegacyGobLog(t *testing.T) {
	dir := t.TempDir()
	// The last gob build's journal record, field for field.
	type legacyOp struct {
		Kind   string
		Seq    uint64
		Entry  interface{}
		Expiry time.Time
	}
	gob.Register(job{})
	var rec bytes.Buffer
	if err := gob.NewEncoder(&rec).Encode(&legacyOp{Kind: "write", Seq: 1, Entry: job{Name: "old", ID: ip(1)}}); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(rec.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	listing := func() map[string]string {
		out := map[string]string{}
		names, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(b)
		}
		return out
	}
	before := listing()

	_, _, err = NewLocalDurable(vclock.NewReal(), DurableOptions{Dir: dir})
	if !errors.Is(err, tuplespace.ErrRecordFormat) {
		t.Fatalf("open of a gob-era directory: %v, want ErrRecordFormat", err)
	}
	for _, want := range []string{dir, "record 0", "before the binary record format", "empty -datadir"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// deaf is a tee with nowhere to put records, and says so — a standby's
// replication switch before promotion.
type deaf struct{}

func (deaf) Append([]byte) error { return nil }
func (deaf) Dropping() bool      { return true }

// TestDurableStandbyLogsWhatItApplies: a tee that drops does not make the
// WAL drop. A durable standby fed its primary's records — tokened ones
// included — logs each, and recovers entries and memos from its own log.
func TestDurableStandbyLogsWhatItApplies(t *testing.T) {
	clk := vclock.NewReal()
	src := tuplespace.New(clk)
	stream := &teeLog{}
	if err := src.AttachJournal(tuplespace.NewJournalSink(stream)); err != nil {
		t.Fatal(err)
	}
	tok := func(seq uint64) tuplespace.OpToken { return tuplespace.OpToken{Client: "c", Seq: seq} }
	for i := 1; i <= 3; i++ {
		if _, err := src.WriteTok(job{Name: "standby", ID: ip(i)}, nil, tuplespace.Forever, tok(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.TakeTok(job{Name: "standby", ID: ip(2)}, nil, time.Second, tok(4)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	l1, d1 := openDurable(t, dir, DurableOptions{Tee: deaf{}})
	a := tuplespace.NewApplier(l1.TS)
	for i, rec := range stream.recs {
		if err := a.Apply(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	l1.Close()
	d1.Close()

	l2, d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if got := d2.Info(); got.Restored != 2 || got.TailRecords != len(stream.recs) {
		t.Fatalf("recovered %d entries from %d records, want 2 from %d", got.Restored, got.TailRecords, len(stream.recs))
	}
	// The take's retry is answered from the recovered memo, consuming nothing.
	got, err := l2.TS.TakeTok(job{Name: "standby", ID: ip(2)}, nil, time.Millisecond, tok(4))
	if err != nil || *got.(job).ID != 2 {
		t.Fatalf("take retried after recovery: %v, %v", got, err)
	}
	if n, _ := l2.Count(job{Name: "standby"}); n != 2 {
		t.Fatalf("%d entries after the retry, want 2", n)
	}
}

// teeLog keeps a copy of every record: the payload is the journal's again
// once Append returns.
type teeLog struct{ recs [][]byte }

func (l *teeLog) Append(p []byte) error {
	l.recs = append(l.recs, append([]byte(nil), p...))
	return nil
}

// TestDurableSinkLendsPayloadToLogAndTee: a journal lends each record to
// its sink for the Append call only, then encodes the next one into the
// same buffer. The durable sink hands it on to the WAL and to its tee
// within the call, so records appended from one overwritten buffer are
// what recovery restores and what the tee kept.
func TestDurableSinkLendsPayloadToLogAndTee(t *testing.T) {
	src := tuplespace.New(vclock.NewReal())
	made := &teeLog{}
	if err := src.AttachJournal(tuplespace.NewJournalSink(made)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := src.Write(job{Name: "lent", ID: ip(i)}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	tee := &teeLog{}
	l1, d1 := openDurable(t, dir, DurableOptions{Tee: tee, SnapshotBytes: -1})
	var buf []byte
	for _, rec := range made.recs {
		buf = append(buf[:0], rec...)
		if err := (durableSink{d1}).Append(buf); err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = 0xff
		}
	}
	l1.Close()
	d1.Close()

	l2, d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if n, _ := l2.Count(job{Name: "lent"}); n != 4 {
		t.Fatalf("recovered %d entries from the log, want 4", n)
	}
	follower := tuplespace.New(vclock.NewReal())
	a := tuplespace.NewApplier(follower)
	for i, rec := range tee.recs {
		if err := a.Apply(rec); err != nil {
			t.Fatalf("tee record %d: %v", i, err)
		}
	}
	if n, _ := follower.Count(job{Name: "lent"}); n != 4 {
		t.Fatalf("the tee's records hold %d entries, want 4", n)
	}
}
