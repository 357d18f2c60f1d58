package tuplespace

import (
	"encoding/gob"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

func init() {
	// Journaled entry types must be registered, as on the wire; task is
	// gob's too, for the legacy gob records the format tests build.
	enc.RegisterType(task{})
	gob.Register(task{})
}

func newJournaledSpace(t *testing.T) (*Space, *captureSink) {
	t.Helper()
	buf := &captureSink{}
	s := newRealSpace()
	if err := s.AttachJournal(NewJournalSink(buf)); err != nil {
		t.Fatal(err)
	}
	return s, buf
}

func replayInto(t *testing.T, buf *captureSink) (*Space, int) {
	t.Helper()
	s2 := newRealSpace()
	n, err := ReplayRecords(buf.recs, s2)
	if err != nil {
		t.Fatal(err)
	}
	return s2, n
}

func TestJournalReplayRestoresLiveEntries(t *testing.T) {
	s, buf := newJournaledSpace(t)
	// Every op returns its own journal error: the checks below are the
	// log's as well as the space's.
	for i := 0; i < 5; i++ {
		mustWrite(t, s, task{Job: "p", ID: ip(i)})
	}
	// Two entries get taken before the "crash".
	for i := 0; i < 2; i++ {
		if _, err := s.Take(task{Job: "p"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s2, n := replayInto(t, buf)
	if n != 3 {
		t.Fatalf("restored %d entries, want 3", n)
	}
	if got, _ := s2.Count(task{Job: "p"}); got != 3 {
		t.Fatalf("count after replay = %d", got)
	}
	// The restored entries are the untaken ones (IDs 2,3,4).
	for i := 2; i < 5; i++ {
		if _, err := s2.TakeIfExists(task{Job: "p", ID: ip(i)}, nil); err != nil {
			t.Fatalf("entry %d missing after replay: %v", i, err)
		}
	}
}

func TestJournalOnlyCommittedEffects(t *testing.T) {
	var buf captureSink
	clk := vclock.NewReal()
	s := New(clk)
	if err := s.AttachJournal(NewJournalSink(&buf)); err != nil {
		t.Fatal(err)
	}

	// An aborted transactional write must not survive.
	tx1 := s.Begin(0)
	if _, err := s.Write(task{Job: "aborted"}, tx1, Forever); err != nil {
		t.Fatal(err)
	}
	_ = tx1.Abort()

	// A committed transactional write must survive.
	tx2 := s.Begin(0)
	if _, err := s.Write(task{Job: "committed"}, tx2, Forever); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// A committed transactional take must remove durably.
	mustWrite(t, s, task{Job: "taken"})
	tx3 := s.Begin(0)
	if _, err := s.Take(task{Job: "taken"}, tx3, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}

	// An aborted take leaves the entry.
	mustWrite(t, s, task{Job: "returned"})
	tx4 := s.Begin(0)
	if _, err := s.Take(task{Job: "returned"}, tx4, time.Second); err != nil {
		t.Fatal(err)
	}
	_ = tx4.Abort()

	s2, _ := replayInto(t, &buf)
	for job, want := range map[string]int{"aborted": 0, "committed": 1, "taken": 0, "returned": 1} {
		if got, _ := s2.Count(task{Job: job}); got != want {
			t.Errorf("replayed count(%q) = %d, want %d", job, got, want)
		}
	}
}

func TestJournalLeaseCancelDurable(t *testing.T) {
	s, buf := newJournaledSpace(t)
	l, err := s.Write(task{Job: "c"}, nil, Forever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	_, n := replayInto(t, buf)
	if n != 0 {
		t.Fatalf("cancelled entry survived replay (%d restored)", n)
	}
}

func TestJournalReplayRespectsLeaseExpiry(t *testing.T) {
	var buf captureSink
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	if err := s.AttachJournal(NewJournalSink(&buf)); err != nil {
		t.Fatal(err)
	}
	clk.Run(func() {
		if _, err := s.Write(task{Job: "short", ID: ip(1)}, nil, 50*time.Millisecond); err != nil {
			t.Error(err)
		}
		if _, err := s.Write(task{Job: "long", ID: ip(2)}, nil, time.Hour); err != nil {
			t.Error(err)
		}
		// "Restart" after the short lease expired.
		clk.Sleep(time.Second)
		s2 := New(clk)
		n, err := ReplayRecords(buf.recs, s2)
		if err != nil {
			t.Error(err)
		}
		if n != 1 {
			t.Errorf("restored %d, want 1 (short lease expired)", n)
		}
		if got, _ := s2.Count(task{Job: "long"}); got != 1 {
			t.Errorf("long-lease entry missing")
		}
	})
}

// TestJournalCompactionRoundTrip: replaying an old journal into a space
// that already has a fresh journal attached produces a compacted journal
// holding exactly the live entries — the restart pattern the durable
// space's recovery snapshot uses.
func TestJournalCompactionRoundTrip(t *testing.T) {
	s1, old := newJournaledSpace(t)
	for i := 0; i < 6; i++ {
		mustWrite(t, s1, task{Job: "c", ID: ip(i)})
	}
	for i := 0; i < 4; i++ {
		if _, err := s1.Take(task{Job: "c"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Restart: fresh space with a fresh journal, replay the old log.
	var fresh captureSink
	s2 := newRealSpace()
	if err := s2.AttachJournal(NewJournalSink(&fresh)); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayRecords(old.recs, s2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d, want 2", n)
	}
	// The fresh journal is compacted: replaying it restores the same two.
	s3, n3 := replayInto(t, &fresh)
	if n3 != 2 {
		t.Fatalf("compacted journal restored %d, want 2", n3)
	}
	if got, _ := s3.Count(task{Job: "c"}); got != 2 {
		t.Fatalf("count = %d", got)
	}
}

func TestAttachJournalToNonEmptySpaceFails(t *testing.T) {
	s := newRealSpace()
	mustWrite(t, s, task{Job: "x"})
	if err := s.AttachJournal(NewJournalSink(&captureSink{})); err == nil {
		t.Fatal("attached to non-empty space")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	s := newRealSpace()
	if _, err := ReplayRecords([][]byte{[]byte("not a journal")}, s); err == nil {
		t.Fatal("garbage journal accepted")
	}
}

func TestJournalImmediateHandoffRecordsWriteAndRemove(t *testing.T) {
	s, buf := newJournaledSpace(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Take(task{Job: "h"}, nil, 5*time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	mustWrite(t, s, task{Job: "h"}) // handed straight to the blocked taker
	<-done
	_, n := replayInto(t, buf)
	if n != 0 {
		t.Fatalf("handed-off entry survived replay (%d restored)", n)
	}
}
