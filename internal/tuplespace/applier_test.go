package tuplespace

import (
	"errors"
	"runtime"
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
	if n := dst.Stats().EntriesLive; n != 5 {
		t.Fatalf("target holds %d entries, want 5", n)
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

// TestApplierFenceAcrossSources: a migration whose source fails over
// re-arms against the promoted node, which holds what it mirrored under
// the dead source's ids and mints above them. Fencing the destination at
// the promoted node's Mirrored()+1 keeps the dedup exact across the
// switch: an entry both sources carried is recognized as already applied
// (no duplicate), a new write under an id the dead source used for an
// entry the standby never received is not mistaken for a dup (no loss), a
// remove hits only the entry it names, and a second fence after a chained
// failover keeps the dedup. The copies here are applied as evicted, so
// they are visible to Count.
func TestApplierFenceAcrossSources(t *testing.T) {
	clk := vclock.NewReal()
	dst := New(clk)
	a := NewApplier(dst).SetFilter(func(Entry) bool { return true })
	count := func(id int) int {
		t.Helper()
		n, err := dst.Count(task{Job: "mc", ID: ip(id)})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// source returns a space and the records it journals.
	source := func() (*Space, *captureSink) {
		s, c := New(clk), &captureSink{}
		if err := s.AttachJournal(NewJournalSink(c)); err != nil {
			t.Fatal(err)
		}
		return s, c
	}
	ship := func(c *captureSink, from int) int {
		t.Helper()
		for _, rec := range c.recs[from:] {
			if err := a.ApplyEvicted(rec); err != nil {
				t.Fatal(err)
			}
		}
		return len(c.recs)
	}
	mirror := func(standby *Space, recs [][]byte) {
		t.Helper()
		m := NewApplier(standby)
		for _, rec := range recs {
			if err := m.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(s *Space, id int) {
		t.Helper()
		if _, err := s.Write(task{Job: "mc", ID: ip(id)}, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	take := func(s *Space, id int) {
		t.Helper()
		if _, err := s.TakeIfExists(task{Job: "mc", ID: ip(id)}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// The first source stores A under id 1, B under 2 and C under 3; its
	// standby receives A and B, the destination all three.
	p0, c0 := source()
	write(p0, 1)
	write(p0, 2)
	write(p0, 3)
	ship(c0, 0)
	s1, c1 := source()
	mirror(s1, c0.recs[:2])
	if s1.Mirrored() != 2 {
		t.Fatalf("standby mirrored up to id %d, want 2", s1.Mirrored())
	}

	// Failover: the destination re-arms against the promoted standby.
	a.Fence(s1.Mirrored() + 1)
	shipped := len(c1.recs)

	// The promoted node re-ships B (a drain pass re-evicts it): it must
	// dedup, not duplicate.
	recs, err := s1.EncodeStateWhere(func(e Entry) bool { return *e.(task).ID == 2 })
	if err != nil || len(recs) != 1 {
		t.Fatalf("re-ship B: %d records, %v", len(recs), err)
	}
	if err := a.ApplyEvicted(recs[0]); err != nil {
		t.Fatal(err)
	}
	if n := count(2); n != 1 {
		t.Fatalf("re-shipped entry B duplicated: %d copies", n)
	}

	// A new write on the promoted node gets id 3, the id C had on the dead
	// source: it must apply, not be dropped as a dup of C.
	write(s1, 4)
	shipped = ship(c1, shipped)
	if l := s1.LeaseFor(3); l.entry.removed {
		t.Fatal("the promoted node did not mint id 3 for its first write")
	}
	if n := count(4); n != 1 {
		t.Fatalf("new write lost to a cross-source id collision: %d copies", n)
	}

	// A remove cancels exactly the entry it names: id 3 is the new
	// write's now, and id 2 is B's on both sources.
	take(s1, 4)
	take(s1, 2)
	shipped = ship(c1, shipped)
	if count(4) != 0 || count(2) != 0 {
		t.Fatalf("removes missed: %d copies of the new write, %d of B left", count(4), count(2))
	}
	if count(3) != 1 || count(1) != 1 {
		t.Fatalf("a remove hit the wrong entry: %d copies of C, %d of A left", count(3), count(1))
	}

	// Chained failover: the promoted node's own standby receives all of
	// the above, then the promoted node stores E under id 4 and dies.
	s2, c2 := source()
	mirror(s2, c1.recs[:shipped])
	write(s1, 5)
	ship(c1, shipped)
	a.Fence(s2.Mirrored() + 1)
	recs, err = s2.EncodeStateWhere(func(e Entry) bool { return *e.(task).ID == 1 })
	if err != nil || len(recs) != 1 {
		t.Fatalf("re-ship A: %d records, %v", len(recs), err)
	}
	if err := a.ApplyEvicted(recs[0]); err != nil {
		t.Fatal(err)
	}
	if n := count(1); n != 1 {
		t.Fatalf("the second fence broke dedup: %d copies of A", n)
	}
	write(s2, 6)
	if l := s2.LeaseFor(4); l.entry.removed {
		t.Fatal("the second promoted node did not mint id 4, E's on the dead source")
	}
	ship(c2, len(c2.recs)-1)
	if count(6) != 1 || count(5) != 1 {
		t.Fatalf("after the second fence: %d copies of the new write, %d of E", count(6), count(5))
	}
}

// TestStandbyKeepsPrimaryIDs: a standby holds each entry under the id its
// primary gave it, whatever its own counter stood at, and mints above the
// highest id it mirrored.
func TestStandbyKeepsPrimaryIDs(t *testing.T) {
	clk := vclock.NewReal()
	primary, standby := New(clk), New(clk)
	// Shift the standby's counter so a minted id would differ from the
	// primary's.
	for i := 0; i < 3; i++ {
		l, err := standby.Write(task{Job: "warmup", ID: ip(i)}, nil, Forever)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Cancel(); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.AttachJournal(NewJournalSink(appliers{NewApplier(standby)})); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 1; i <= 5; i++ {
		l, err := primary.Write(task{Job: "mc", ID: ip(i)}, nil, Forever)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, l.Seq())
	}
	for i, id := range ids {
		l := standby.LeaseFor(id)
		if l.Seq() != id || l.entry.removed || *l.entry.entry().(task).ID != i+1 {
			t.Fatalf("the standby does not hold the primary's entry %d under id %d", i+1, id)
		}
	}
	if got, want := standby.Mirrored(), ids[len(ids)-1]; got != want {
		t.Fatalf("Mirrored() = %d, want %d", got, want)
	}
	l, err := standby.Write(task{Job: "promoted", ID: ip(1)}, nil, Forever)
	if err != nil {
		t.Fatal(err)
	}
	if l.Seq() <= standby.Mirrored() {
		t.Fatalf("the standby minted id %d, not above the mirrored %d", l.Seq(), standby.Mirrored())
	}
}

// TestApplierIdempotent: a snapshot push overlapping the incremental
// stream delivers records twice; the ids they carry make the replay a
// no-op, and a remove for an id nothing holds is tolerated.
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

	// Reset empties the mirror — the snapshot-push preamble.
	a2 := NewApplier(New(clk))
	for _, rec := range cap.recs {
		if err := a2.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	a2.Reset()
	if n := a2.s.Stats().EntriesLive; n != 0 {
		t.Fatalf("Reset left %d entries", n)
	}
}

// TestStandbyForgetsExpiredEntries: a lease expiry is not journaled, so
// each copy expires its entries on its own clock. Once a standby's leased
// entries expired and a lookup reaped them, nothing on the standby may
// still hold them: four rounds of a thousand 1 KiB entries must leave
// less than a quarter of one round's payload on the heap.
func TestStandbyForgetsExpiredEntries(t *testing.T) {
	const rounds, perRound, lease = 4, 1000, time.Second
	clk := vclock.NewVirtual(time.Unix(1_600_000_000, 0))
	primary, standby := New(clk), New(clk)
	if err := primary.AttachJournal(NewJournalSink(appliers{NewApplier(standby)})); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	clk.Run(func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < perRound; i++ {
				if _, err := primary.Write(padded("k", i), nil, lease); err != nil {
					t.Fatal(err)
				}
			}
			if n := standby.Stats().EntriesLive; n != perRound {
				t.Fatalf("round %d: the standby holds %d entries, want %d", r, n, perRound)
			}
			clk.Sleep(2 * lease)
			for _, s := range []*Space{primary, standby} {
				if _, err := s.TakeIfExists(paddedDoc{}, nil); !errors.Is(err, ErrNoMatch) {
					t.Fatalf("round %d: a lookup past the lease found %v", r, err)
				}
				if n := s.Stats().EntriesLive; n != 0 {
					t.Fatalf("round %d: %d entries outlived their lease", r, n)
				}
			}
		}
	})
	grown, bound := int64(heap())-int64(before), int64(perRound*1024/4)
	runtime.KeepAlive(primary) // and through its journal, the standby's applier
	runtime.KeepAlive(standby)
	if grown > bound {
		t.Fatalf("%d rounds of %d expired entries left the heap %d KiB larger (bound %d KiB): the standby still holds them",
			rounds, perRound, grown>>10, bound>>10)
	}
	t.Logf("heap grew by %d B", grown)
}
