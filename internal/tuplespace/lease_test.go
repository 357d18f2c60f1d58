package tuplespace

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// TestLeaseRenewalRacesExpirySweep pins the renew-vs-sweep ordering under
// a deterministic clock: a renewal applied before the lease's original
// expiry keeps the entry alive past it; once the (renewed) lease lapses
// and a scan has swept the entry, both Renew and Cancel report
// ErrLeaseExpired rather than resurrecting it.
func TestLeaseRenewalRacesExpirySweep(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		l, err := s.Write(task{Job: "lease", ID: ip(1)}, nil, 100*time.Millisecond)
		if err != nil {
			t.Error(err)
			return
		}
		// Renew just before expiry.
		clk.Sleep(90 * time.Millisecond)
		if err := l.Renew(100 * time.Millisecond); err != nil {
			t.Errorf("renew before expiry: %v", err)
		}
		// Past the ORIGINAL expiry the entry must still match: the
		// renewal won the race against the sweep.
		clk.Sleep(50 * time.Millisecond) // t=140ms, original expiry was 100ms
		if _, err := s.ReadIfExists(task{Job: "lease"}, nil); err != nil {
			t.Errorf("renewed entry swept at original expiry: %v", err)
		}
		// Let the renewed lease lapse, and force a sweep via a scan.
		clk.Sleep(100 * time.Millisecond) // t=240ms > 190ms
		if _, err := s.ReadIfExists(task{Job: "lease"}, nil); !errors.Is(err, ErrNoMatch) {
			t.Errorf("expired entry still matches: %v", err)
		}
		// The sweep marked it removed: renew and cancel both lose.
		if err := l.Renew(time.Hour); !errors.Is(err, ErrLeaseExpired) {
			t.Errorf("renew after sweep = %v, want ErrLeaseExpired", err)
		}
		if err := l.Cancel(); !errors.Is(err, ErrLeaseExpired) {
			t.Errorf("cancel after sweep = %v, want ErrLeaseExpired", err)
		}
	})
}

// TestLeaseRenewExpiredWithoutSweep: expiry alone (no scan having swept
// the entry yet) must already refuse renewal — the lease contract is
// about time, not about whether a scan happened to run.
func TestLeaseRenewExpiredWithoutSweep(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		l, err := s.Write(task{Job: "nosweep"}, nil, 50*time.Millisecond)
		if err != nil {
			t.Error(err)
			return
		}
		clk.Sleep(60 * time.Millisecond)
		if err := l.Renew(time.Hour); !errors.Is(err, ErrLeaseExpired) {
			t.Errorf("renew past expiry = %v, want ErrLeaseExpired", err)
		}
	})
}

// TestLeaseCancelConcurrentWithSweep hammers Renew/Cancel against scans
// (which sweep expired entries) from many goroutines under the real
// clock. Run with -race; the invariant checked at the end is that every
// lease ends in exactly one of two states — cancelled/expired, or alive —
// and double-cancel always errors.
func TestLeaseCancelConcurrentWithSweep(t *testing.T) {
	s := newRealSpace()
	const n = 64
	leases := make([]EntryLease, n)
	for i := 0; i < n; i++ {
		l, err := s.Write(task{Job: "race", ID: ip(i)}, nil, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = l
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(3)
		// Renewer: races the expiry.
		go func() {
			defer wg.Done()
			_ = leases[i].Renew(20 * time.Millisecond)
		}()
		// Sweeper: scans force expiry processing.
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i%7) * time.Millisecond)
			_, _ = s.ReadIfExists(task{Job: "race", ID: ip(i)}, nil)
		}()
		// Canceller: races both.
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i%5) * time.Millisecond)
			_ = leases[i].Cancel()
		}()
	}
	wg.Wait()
	// Whatever interleaving happened, a second cancel must now be
	// definitive for every entry that is gone, and every survivor must
	// still be renewable.
	for i := 0; i < n; i++ {
		err := leases[i].Cancel()
		if err == nil {
			// First cancel lost every race until now; the entry was
			// alive and is cancelled as of this call. A repeat must fail.
			if err2 := leases[i].Cancel(); !errors.Is(err2, ErrLeaseExpired) {
				t.Fatalf("lease %d: double cancel = %v", i, err2)
			}
		} else if !errors.Is(err, ErrLeaseExpired) {
			t.Fatalf("lease %d: cancel = %v", i, err)
		}
	}
	if got, _ := s.Count(task{Job: "race"}); got != 0 {
		t.Fatalf("%d entries survived cancellation", got)
	}
}

// TestReplayRecordsSkipsTxnAborted: a journal (as WAL records) containing
// entries written under transactions that later aborted must not
// resurrect them — aborted writes never became public, so they never
// reached the journal at all, and replay yields only committed state.
func TestReplayRecordsSkipsTxnAborted(t *testing.T) {
	sink := &scriptedSink{}
	clk := vclock.NewReal()
	s := New(clk)
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}

	// Aborted write: never visible, never journaled.
	tx1 := s.Begin(0)
	if _, err := s.Write(task{Job: "aborted", ID: ip(1)}, tx1, Forever); err != nil {
		t.Fatal(err)
	}
	_ = tx1.Abort()

	// Aborted take: the entry stays, and stays durable.
	mustWrite(t, s, task{Job: "kept", ID: ip(2)})
	tx2 := s.Begin(0)
	if _, err := s.Take(task{Job: "kept"}, tx2, time.Second); err != nil {
		t.Fatal(err)
	}
	_ = tx2.Abort()

	// Committed write for contrast.
	tx3 := s.Begin(0)
	if _, err := s.Write(task{Job: "committed", ID: ip(3)}, tx3, Forever); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}

	s2 := newRealSpace()
	n, err := ReplayRecords(sink.records, s2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d entries, want 2 (kept + committed)", n)
	}
	for job, want := range map[string]int{"aborted": 0, "kept": 1, "committed": 1} {
		if got, _ := s2.Count(task{Job: job}); got != want {
			t.Errorf("replayed count(%q) = %d, want %d", job, got, want)
		}
	}
}

// TestReplayRecordsDedupsSnapshotOverlap: a record present both in a
// snapshot and in a retained tail segment (the legal overlap the WAL's
// rotate-then-capture ordering produces) must materialize exactly once.
func TestReplayRecordsDedupsSnapshotOverlap(t *testing.T) {
	sink := &scriptedSink{}
	s := newRealSpace()
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, task{Job: "dup", ID: ip(7)})

	// Simulate the overlap: snapshot state (EncodeState) followed by the
	// original tail record for the same entry.
	snap, err := s.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	records := append(append([][]byte{}, snap...), sink.records...)

	s2 := newRealSpace()
	n, err := ReplayRecords(records, s2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d entries, want 1 (overlap must dedup)", n)
	}
	if got, _ := s2.Count(task{Job: "dup"}); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}
