package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"gospaces/internal/space"
	"gospaces/internal/transport"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// batchEntry is the entry type the batch tests ship.
type batchEntry struct {
	K string `space:"index"`
	N int
}

func init() { transport.RegisterType(batchEntry{}) }

var batchEpoch = time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC)

// recordCopies is a record sink that keeps a copy of every record.
type recordCopies struct{ recs [][]byte }

func (c *recordCopies) Append(payload []byte) error {
	c.recs = append(c.recs, append([]byte(nil), payload...))
	return nil
}

// sourceRecords returns the journal records of a short mixed stream on a
// space of its own: writes with and without a lease, tokened and not,
// tokened takes, a take-all and a lease cancel — a record of every kind a
// primary ships.
func sourceRecords(t testing.TB, clk vclock.Clock) [][]byte {
	t.Helper()
	src := tuplespace.New(clk)
	log := &recordCopies{}
	if err := src.AttachJournal(tuplespace.NewJournalSink(log)); err != nil {
		t.Fatal(err)
	}
	tok := func(seq uint64) tuplespace.OpToken { return tuplespace.OpToken{Client: "c1", Seq: seq} }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := src.Write(batchEntry{K: "a", N: 1}, nil, tuplespace.Forever)
	must(err)
	_, err = src.WriteTok(batchEntry{K: "b", N: 2}, nil, time.Hour, tok(1))
	must(err)
	_, err = src.TakeTok(batchEntry{K: "a"}, nil, 0, tok(2))
	must(err)
	for i := 0; i < 3; i++ {
		_, err = src.Write(batchEntry{K: "all", N: i}, nil, tuplespace.Forever)
		must(err)
	}
	_, err = src.TakeAllTok(batchEntry{K: "all"}, nil, 0, tok(3))
	must(err)
	l, err := src.Write(batchEntry{K: "c", N: 4}, nil, tuplespace.Forever)
	must(err)
	must(l.Cancel())
	_, err = src.Write(batchEntry{K: "d", N: 5}, nil, tuplespace.Forever)
	must(err)
	return log.recs
}

// batchOf frames recs as the wire's batch.
func batchOf(recs [][]byte) []byte {
	var b []byte
	for _, rec := range recs {
		b = appendRecord(b, rec)
	}
	return b
}

// syncedBackup returns a backup that applied an empty snapshot at seq 0.
func syncedBackup(t testing.TB, clk vclock.Clock) *Backup {
	t.Helper()
	b := NewBackup(space.NewLocal(clk), BackupOptions{Clock: clk, FailoverTimeout: time.Hour})
	if _, err := b.handleSync(&syncArgs{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	return b
}

// stateOf is what a space holds, in its own snapshot encoding: two spaces
// that applied the same records in the same order hold the same bytes.
func stateOf(t testing.TB, ts *tuplespace.Space) []byte {
	t.Helper()
	recs, err := ts.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return batchOf(recs)
}

func appendBatch(b *Backup, from uint64, recs [][]byte) (uint64, error) {
	res, err := b.handleAppend(&appendArgs{Epoch: 1, From: from, N: uint64(len(recs)), Batch: batchOf(recs)})
	if err != nil {
		return 0, err
	}
	return res.(*appendReply).Applied, nil
}

// TestAppendSkipsReshippedOverlap: a reply lost after the standby applied
// a batch makes the primary ship it again with the records queued since;
// the standby applies only the new tail, so each record lands once.
func TestAppendSkipsReshippedOverlap(t *testing.T) {
	clk := vclock.NewVirtual(batchEpoch)
	recs := sourceRecords(t, clk)
	b := syncedBackup(t, clk)
	if got, err := appendBatch(b, 1, recs[:3]); err != nil || got != 3 {
		t.Fatalf("first batch: applied %d, %v", got, err)
	}
	if got, err := appendBatch(b, 1, recs); err != nil || got != uint64(len(recs)) {
		t.Fatalf("re-shipped batch: applied %d, %v; want %d", got, err, len(recs))
	}
	if got, err := appendBatch(b, 2, recs[1:]); err != nil || got != uint64(len(recs)) {
		t.Fatalf("a batch the standby holds whole: applied %d, %v; want %d", got, err, len(recs))
	}
	ref := tuplespace.New(clk)
	a := tuplespace.NewApplier(ref)
	for _, rec := range recs {
		if err := a.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(stateOf(t, b.local.TS), stateOf(t, ref)) {
		t.Fatal("the standby differs from a space that applied each record once")
	}
}

// TestAppendGapIsOutOfSync: a batch starting past the standby's next
// record means records went missing; the standby refuses it whole.
func TestAppendGapIsOutOfSync(t *testing.T) {
	clk := vclock.NewVirtual(batchEpoch)
	recs := sourceRecords(t, clk)
	b := syncedBackup(t, clk)
	if _, err := appendBatch(b, 1, recs[:2]); err != nil {
		t.Fatal(err)
	}
	before := stateOf(t, b.local.TS)
	if _, err := appendBatch(b, 4, recs[3:]); err != ErrOutOfSync {
		t.Fatalf("a gap answered %v, want ErrOutOfSync", err)
	}
	if b.Applied() != 2 || !bytes.Equal(stateOf(t, b.local.TS), before) {
		t.Fatalf("a refused gap moved the standby to %d", b.Applied())
	}
}

// TestMalformedBatchAppliesNothing: a batch whose framing is not N records
// and nothing more — a prefix past the end, a torn prefix, a lying N, bytes
// after the last record — is refused before its first record applies, as
// an append and as a snapshot push.
func TestMalformedBatchAppliesNothing(t *testing.T) {
	clk := vclock.NewVirtual(batchEpoch)
	recs := sourceRecords(t, clk)
	good := batchOf(recs[:4])
	overlong := append(binary.AppendUvarint(batchOf(recs[:2]), 1000), recs[2]...)
	cases := []struct {
		name  string
		n     uint64
		batch []byte
	}{
		{"truncated", 4, good[:len(good)-1]},
		{"prefix past the end", 3, overlong},
		{"torn prefix", 3, append(batchOf(recs[:2]), 0x80)},
		{"prefix overflows 64 bits", 3, append(batchOf(recs[:2]), bytes.Repeat([]byte{0xff}, 10)...)},
		{"N above the records", 5, good},
		{"N below the records", 3, good},
		{"N far above the bytes", 1 << 62, good},
		{"records and no N", 0, good},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := syncedBackup(t, clk)
			if _, err := appendBatch(b, 1, recs[:1]); err != nil {
				t.Fatal(err)
			}
			before := stateOf(t, b.local.TS)
			_, err := b.handleAppend(&appendArgs{Epoch: 1, From: 2, N: c.n, Batch: c.batch})
			if !errors.Is(err, errBatch) {
				t.Fatalf("append answered %v, want errBatch", err)
			}
			_, err = b.handleSync(&syncArgs{Epoch: 1, Seq: 9, N: c.n, Batch: c.batch})
			if !errors.Is(err, errBatch) {
				t.Fatalf("sync answered %v, want errBatch", err)
			}
			if b.Applied() != 1 || !bytes.Equal(stateOf(t, b.local.TS), before) {
				t.Fatalf("a malformed batch moved the standby to %d or changed its contents", b.Applied())
			}
			if got, err := appendBatch(b, 2, recs[1:2]); err != nil || got != 2 {
				t.Fatalf("the stream does not go on after a refused batch: applied %d, %v", got, err)
			}
		})
	}
}

// TestFailedRecordKeepsPositionHonest: a well-framed batch whose third
// record does not decode stops there; the two before it stay applied and
// the standby's position says so, so the retry applies from the third on.
func TestFailedRecordKeepsPositionHonest(t *testing.T) {
	clk := vclock.NewVirtual(batchEpoch)
	recs := sourceRecords(t, clk)
	b := syncedBackup(t, clk)
	bad := [][]byte{recs[0], recs[1], {0x00}, recs[2]}
	if _, err := appendBatch(b, 1, bad); err == nil || errors.Is(err, errBatch) {
		t.Fatalf("an undecodable record answered %v, want its decode error", err)
	}
	if b.Applied() != 2 {
		t.Fatalf("standby at %d after applying two records, want 2", b.Applied())
	}
	if got, err := appendBatch(b, 1, recs); err != nil || got != uint64(len(recs)) {
		t.Fatalf("retry: applied %d, %v; want %d", got, err, len(recs))
	}
	// A snapshot that fails halfway is no position at all.
	if _, err := b.handleSync(&syncArgs{Epoch: 1, Seq: 40, N: 2, Batch: batchOf([][]byte{recs[0], {0x00}})}); err == nil {
		t.Fatal("an undecodable snapshot record was accepted")
	}
	if _, err := appendBatch(b, uint64(len(recs))+1, recs[:1]); err != ErrOutOfSync {
		t.Fatalf("an append after a failed snapshot answered %v, want ErrOutOfSync", err)
	}
}

// FuzzAppendBatch feeds an arbitrary From, N and batch to a synced
// standby. It must not panic, and whatever it answers, it must hold what a
// space holds that applied the batch's records after the standby's
// position one by one, up to the first that failed — nothing at all when
// the framing is wrong or the batch leaves a gap.
func FuzzAppendBatch(f *testing.F) {
	clk := vclock.NewVirtual(batchEpoch)
	recs := sourceRecords(f, clk)
	const base = 3 // the standby's position before the fuzzed batch
	for _, s := range []struct{ from, n uint64 }{{4, 0}, {4, 1}, {4, 3}, {1, 6}, {2, 4}, {5, 2}} {
		f.Add(s.from, s.n, batchOf(recs[s.from-1:s.from-1+s.n]))
	}
	f.Add(uint64(4), uint64(len(recs)-base), batchOf(recs[base:]))
	f.Add(uint64(4), uint64(2), batchOf(recs[base : base+2])[:10])
	f.Fuzz(func(t *testing.T, from, n uint64, batch []byte) {
		b := syncedBackup(t, clk)
		ref := tuplespace.New(clk)
		a := tuplespace.NewApplier(ref)
		for _, rec := range recs[:base] {
			if err := a.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := appendBatch(b, 1, recs[:base]); err != nil || got != base {
			t.Fatalf("base batch: applied %d, %v", got, err)
		}

		_, err := b.handleAppend(&appendArgs{Epoch: 1, From: from, N: n, Batch: batch})

		want, wantErr := uint64(base), true
		if checkBatch(n, batch) == nil && from <= base+1 {
			wantErr = false
			rest := batch
			for i := uint64(0); i < n; i++ {
				rec, next, _ := nextRecord(rest)
				rest = next
				if from+i <= base {
					continue
				}
				if a.Apply(rec) != nil {
					wantErr = true
					break
				}
				want++
			}
		}
		if got := b.Applied(); got != want || (err != nil) != wantErr {
			t.Fatalf("standby at %d (%v), reference at %d (failing: %v)", got, err, want, wantErr)
		}
		if !bytes.Equal(stateOf(t, b.local.TS), stateOf(t, ref)) {
			t.Fatalf("standby and reference differ after %d records (%v)", want-base, err)
		}
	})
}
