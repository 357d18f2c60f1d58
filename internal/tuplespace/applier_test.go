package tuplespace

import (
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// captureSink records journal payloads in order.
type captureSink struct{ recs [][]byte }

func (c *captureSink) Append(p []byte) error {
	c.recs = append(c.recs, append([]byte(nil), p...))
	return nil
}

// TestApplierMirrorsStream: replaying a source space's journal stream
// record by record leaves the target space identical.
func TestApplierMirrorsStream(t *testing.T) {
	clk := vclock.NewReal()
	src := New(clk)
	cap := &captureSink{}
	if err := src.AttachJournal(NewJournalSink(cap)); err != nil {
		t.Fatal(err)
	}
	// IDs start at 1: gob omits zero values, so a pointer to 0 would not
	// survive the journal round-trip as a matchable field.
	for i := 1; i <= 6; i++ {
		if _, err := src.Write(task{Job: "mc", ID: ip(i)}, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Take(task{Job: "mc", ID: ip(2)}, nil, time.Second); err != nil {
		t.Fatal(err)
	}

	dst := New(clk)
	a := NewApplier(dst)
	for i, rec := range cap.recs {
		if err := a.Apply(rec); err != nil {
			t.Fatalf("apply record %d: %v", i, err)
		}
	}
	for i := 1; i <= 6; i++ {
		want := 1
		if i == 2 {
			want = 0
		}
		if n, _ := dst.Count(task{Job: "mc", ID: ip(i)}); n != want {
			t.Fatalf("target has %d copies of task %d, want %d", n, i, want)
		}
	}
	if a.Len() != 5 {
		t.Fatalf("applier tracks %d leases, want 5", a.Len())
	}
}

// mustOp encodes one journal record for direct injection into an applier.
func mustOp(t *testing.T, r record) []byte {
	t.Helper()
	rec, err := encodeRecord(&r)
	if err != nil {
		t.Fatalf("encode record: %v", err)
	}
	return rec
}

func writeRec(seq uint64, e Entry) record {
	return record{kind: recWrite, seqs: []uint64{seq}, entries: []Entry{e}}
}

// TestApplierRebindAcrossIncarnations: after the source of a stream fails
// over, the promoted node assigns its own Seqs. Rebind with a translation
// table must keep the dedup exact across the switch: an entry both
// incarnations carried is recognized as already applied (no duplicate), a
// new write whose Seq merely collides with an unrelated old Seq is not
// mistaken for a dup (no loss), removes resolve to the entry they meant,
// and translations compose across chained failovers.
func TestApplierRebindAcrossIncarnations(t *testing.T) {
	clk := vclock.NewReal()
	dst := New(clk)
	a := NewApplier(dst)

	// Incarnation 0 (the original primary): entry A under Seq 1, entry B
	// under Seq 2.
	for _, op := range []record{
		writeRec(1, task{Job: "mc", ID: ip(1)}),
		writeRec(2, task{Job: "mc", ID: ip(2)}),
	} {
		if err := a.Apply(mustOp(t, op)); err != nil {
			t.Fatal(err)
		}
	}

	// Failover: the promoted node knows A as Seq 8 and B as Seq 7.
	a.Rebind(map[uint64]uint64{8: 1, 7: 2})

	// The promoted node re-ships B under its own Seq 7 (a post-failover
	// drain pass re-evicts it): must dedup, not duplicate.
	if err := a.Apply(mustOp(t, writeRec(7, task{Job: "mc", ID: ip(2)}))); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.Count(task{Job: "mc", ID: ip(2)}); n != 1 {
		t.Fatalf("re-shipped entry B duplicated: %d copies", n)
	}

	// A genuinely new post-failover write whose Seq collides with the old
	// incarnation's Seq 2: must apply, not be dropped as a dup.
	if err := a.Apply(mustOp(t, writeRec(2, task{Job: "mc", ID: ip(9)}))); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.Count(task{Job: "mc", ID: ip(9)}); n != 1 {
		t.Fatalf("new write lost to a cross-incarnation Seq collision: %d copies", n)
	}

	// A remove in the new namespace cancels exactly the entry it names.
	if err := a.Apply(mustOp(t, record{kind: recRemove, seqs: []uint64{7}})); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.Count(task{Job: "mc", ID: ip(2)}); n != 0 {
		t.Fatalf("remove of translated Seq missed: %d copies of B left", n)
	}
	if n, _ := dst.Count(task{Job: "mc", ID: ip(1)}); n != 1 {
		t.Fatalf("remove of translated Seq hit the wrong entry: %d copies of A left", n)
	}

	// Chained failover: the next incarnation knows A as Seq 21 (via the
	// previous incarnation's Seq 8). The translation composes back to the
	// original key, so A still dedups.
	a.Rebind(map[uint64]uint64{21: 8})
	if err := a.Apply(mustOp(t, writeRec(21, task{Job: "mc", ID: ip(1)}))); err != nil {
		t.Fatal(err)
	}
	if n, _ := dst.Count(task{Job: "mc", ID: ip(1)}); n != 1 {
		t.Fatalf("chained rebind broke dedup: %d copies of A", n)
	}
}

// TestApplierSeqMapping: a standby's applier reports, per entry, the local
// space's Seq → the Seq the source shipped it under — the translation
// table a downstream applier rebinds with when this node is promoted.
func TestApplierSeqMapping(t *testing.T) {
	clk := vclock.NewReal()
	backup := New(clk)
	// Shift the backup's Seq counter so local Seqs diverge from the
	// source's, as they do after any skipped record.
	l, err := backup.Write(task{Job: "warmup", ID: ip(0)}, nil, Forever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}

	a := NewApplier(backup)
	if err := a.Apply(mustOp(t, writeRec(5, task{Job: "mc", ID: ip(1)}))); err != nil {
		t.Fatal(err)
	}
	m := a.SeqMapping()
	if len(m) != 1 {
		t.Fatalf("SeqMapping has %d entries, want 1", len(m))
	}
	for local, src := range m {
		if src != 5 {
			t.Fatalf("SeqMapping reports source Seq %d, want 5", src)
		}
		if local == 5 {
			t.Fatalf("local Seq unexpectedly equals source Seq; counter shift failed")
		}
	}
}

// TestApplierIdempotent: a snapshot push overlapping the incremental
// stream delivers records twice; the Seq mapping makes the replay a
// no-op, and a remove for an unknown Seq is tolerated.
func TestApplierIdempotent(t *testing.T) {
	clk := vclock.NewReal()
	src := New(clk)
	cap := &captureSink{}
	if err := src.AttachJournal(NewJournalSink(cap)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(task{Job: "mc", ID: ip(1)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(task{Job: "mc", ID: ip(2)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Take(task{Job: "mc", ID: ip(1)}, nil, time.Second); err != nil {
		t.Fatal(err)
	}

	dst := New(clk)
	a := NewApplier(dst)
	for pass := 0; pass < 2; pass++ {
		for i, rec := range cap.recs {
			if err := a.Apply(rec); err != nil {
				t.Fatalf("pass %d record %d: %v", pass, i, err)
			}
		}
	}
	if n, _ := dst.Count(task{Job: "mc"}); n != 1 {
		t.Fatalf("double replay left %d entries, want 1", n)
	}

	// Reset forgets the mapping — the snapshot-push preamble. Replaying
	// into a fresh space afterwards works from scratch.
	a2 := NewApplier(New(clk))
	for _, rec := range cap.recs {
		if err := a2.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	a2.Reset()
	if a2.Len() != 0 {
		t.Fatalf("Reset left %d tracked leases", a2.Len())
	}
}
