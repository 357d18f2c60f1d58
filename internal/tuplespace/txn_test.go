package tuplespace

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// ttl is the transaction lease the expiry tests run on.
const ttl = 10 * time.Second

func virtualSpace() (*vclock.Virtual, *Space) {
	clk := vclock.NewVirtual(time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC))
	return clk, New(clk)
}

// TestTxnExpiredTakeVisibleAtDeadline: a worker takes under a leased
// transaction and dies. Nothing sweeps; the next lookup after the deadline
// finds the entry, and at the deadline itself it is still held.
func TestTxnExpiredTakeVisibleAtDeadline(t *testing.T) {
	clk, s := virtualSpace()
	clk.Run(func() {
		mustWrite(t, s, task{Job: "t", ID: ip(7)})
		if _, err := s.TakeIfExists(task{Job: "t"}, s.Begin(ttl)); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(ttl)
		if _, err := s.TakeIfExists(task{Job: "t"}, nil); !errors.Is(err, ErrNoMatch) {
			t.Fatalf("at the deadline: %v, want the entry still held", err)
		}
		clk.Sleep(time.Nanosecond)
		got, err := s.TakeIfExists(task{Job: "t"}, nil)
		if err != nil {
			t.Fatalf("deadline + 1ns: %v, want the entry back", err)
		}
		if *got.(task).ID != 7 {
			t.Fatalf("got %+v", got)
		}
	})
}

// TestTxnExpiryWakesParkedTake: a take parked for ten leases receives the
// entry the moment the holder's lease lapses, not at its own timeout; a
// take on another type is not woken by the lapse.
func TestTxnExpiryWakesParkedTake(t *testing.T) {
	clk, s := virtualSpace()
	clk.Run(func() {
		mustWrite(t, s, task{Job: "t", ID: ip(1)})
		if _, err := s.TakeIfExists(task{Job: "t"}, s.Begin(ttl)); err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		clk.Go(func() {
			if _, err := s.Take(idxTask{Job: "other"}, nil, 10*ttl); !errors.Is(err, ErrTimeout) {
				t.Errorf("take on another type: %v, want a timeout", err)
			}
			if d := clk.Since(start); d != 10*ttl {
				t.Errorf("take on another type returned after %v, want its own timeout %v", d, 10*ttl)
			}
		})
		got, err := s.Take(task{Job: "t"}, nil, 10*ttl)
		if err != nil {
			t.Fatalf("parked take: %v", err)
		}
		if *got.(task).ID != 1 {
			t.Fatalf("got %+v", got)
		}
		if d := clk.Since(start); d != ttl+time.Nanosecond {
			t.Fatalf("parked take returned after %v, want the deadline %v", d, ttl+time.Nanosecond)
		}
	})
}

// TestTxnCommitAfterDeadlineIsInactive: a commit that arrives after the
// lease lapsed fails, publishes nothing and journals nothing; the taken
// entry is back.
func TestTxnCommitAfterDeadlineIsInactive(t *testing.T) {
	clk, s := virtualSpace()
	var sink captureSink
	if err := s.AttachJournal(NewJournalSink(&sink)); err != nil {
		t.Fatal(err)
	}
	clk.Run(func() {
		mustWrite(t, s, task{Job: "t"})
		tx := s.Begin(ttl)
		if _, err := s.TakeIfExists(task{Job: "t"}, tx); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(task{Job: "result"}, tx, Forever); err != nil {
			t.Fatal(err)
		}
		clk.Sleep(ttl + time.Nanosecond)
		before := len(sink.recs)
		if err := s.Commit(tx, tok("w", 1)); !errors.Is(err, ErrTxnInactive) {
			t.Fatalf("late commit: %v, want ErrTxnInactive", err)
		}
		if n := len(sink.recs) - before; n != 0 {
			t.Fatalf("late commit journaled %d records", n)
		}
		if n, _ := s.Count(task{Job: "result"}); n != 0 {
			t.Fatalf("late commit published %d results", n)
		}
		if n, _ := s.Count(task{Job: "t"}); n != 1 {
			t.Fatalf("task count %d after the lapse, want 1", n)
		}
	})
}

// TestTxnExpiryCountedOnce: each lapse is counted once however many
// operations pass it, and only lapsed transactions are aborted.
func TestTxnExpiryCountedOnce(t *testing.T) {
	clk, s := virtualSpace()
	clk.Run(func() {
		var short []*Txn
		for i := 0; i < 3; i++ {
			mustWrite(t, s, task{Job: "t", ID: ip(i)})
			tx := s.Begin(ttl)
			if _, err := s.TakeIfExists(task{Job: "t"}, tx); err != nil {
				t.Fatal(err)
			}
			short = append(short, tx)
		}
		long, forever := s.Begin(time.Hour), s.Begin(0)
		clk.Sleep(ttl + time.Nanosecond)
		for i := 0; i < 3; i++ {
			if st := s.Stats(); st.TxnExpired != 3 || st.TxnAborts != 3 || st.TxnsLive != 2 {
				t.Fatalf("pass %d: expired %d aborts %d live %d, want 3 3 2", i, st.TxnExpired, st.TxnAborts, st.TxnsLive)
			}
			if n, _ := s.Count(task{Job: "t"}); n != 3 {
				t.Fatalf("pass %d: %d tasks visible, want 3", i, n)
			}
		}
		for _, tx := range short {
			if err := tx.Abort(); !errors.Is(err, ErrTxnInactive) {
				t.Fatalf("abort of a lapsed txn: %v", err)
			}
		}
		if err := long.Commit(); err != nil {
			t.Fatalf("unexpired txn: %v", err)
		}
		if err := forever.Commit(); err != nil {
			t.Fatalf("txn without a lease: %v", err)
		}
		if st := s.Stats(); st.TxnExpired != 3 || st.TxnsLive != 0 {
			t.Fatalf("after: expired %d live %d, want 3 0", st.TxnExpired, st.TxnsLive)
		}
	})
}

func TestTxnCommitTwiceFails(t *testing.T) {
	s := newRealSpace()
	tx := s.Begin(0)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("second commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestTxnAbortTwiceFails(t *testing.T) {
	s := newRealSpace()
	tx := s.Begin(0)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("second abort: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("commit after abort: %v", err)
	}
}

// TestTxnJoinAfterAbortFails: no operation runs under a finished
// transaction, nor under one another space minted.
func TestTxnJoinAfterAbortFails(t *testing.T) {
	s := newRealSpace()
	tx := s.Begin(0)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(task{}, tx, Forever); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("write under an aborted txn: %v", err)
	}
	if _, err := s.ReadAll(task{}, tx, 0); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("read-all under an aborted txn: %v", err)
	}
	other := newRealSpace()
	s.Begin(0) // so the foreign id is live here too
	if _, err := s.Write(task{}, other.Begin(0), Forever); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("write under another space's txn: %v", err)
	}
}

func TestTxnIDsCountFromOne(t *testing.T) {
	s := newRealSpace()
	for want := uint64(1); want <= 100; want++ {
		tx := s.Begin(0)
		if tx.ID() != want {
			t.Fatalf("txn id %d, want %d", tx.ID(), want)
		}
		_ = tx.Abort()
	}
}

func TestTxnConcurrentCommitAbort(t *testing.T) {
	s := newRealSpace()
	for i := 0; i < 200; i++ {
		mustWrite(t, s, task{Job: "race"})
		tx := s.Begin(0)
		if _, err := s.TakeIfExists(task{Job: "race"}, tx); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = tx.Commit() }()
		go func() { defer wg.Done(); errs[1] = tx.Abort() }()
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("commit %v, abort %v: want exactly one to win", errs[0], errs[1])
		}
		want := 0
		if errs[1] == nil {
			want = 1
		}
		if n, _ := s.Count(task{Job: "race"}); n != want {
			t.Fatalf("count %d after the race, want %d", n, want)
		}
		_, _ = s.TakeIfExists(task{Job: "race"}, nil)
	}
}

// TestAbortReexposesEntryToBlockedTake is the paper's §3 fault-tolerance
// story at the smallest scale: an entry taken under a transaction is
// invisible to everyone else, and the moment the transaction aborts the
// entry is delivered to a Take already parked for it.
func TestAbortReexposesEntryToBlockedTake(t *testing.T) {
	s := newRealSpace()
	mustWrite(t, s, task{Job: "work", ID: ip(1)})
	tx := s.Begin(time.Minute)
	if _, err := s.Take(task{Job: "work"}, tx, 0); err != nil {
		t.Fatalf("take under txn: %v", err)
	}
	if _, err := s.TakeIfExists(task{Job: "work"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("entry visible while locked under txn: %v", err)
	}
	type res struct {
		e   Entry
		err error
	}
	done := make(chan res, 1)
	go func() {
		e, err := s.Take(task{Job: "work"}, nil, 5*time.Second)
		done <- res{e, err}
	}()
	for s.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	r := <-done
	if r.err != nil || *r.e.(task).ID != 1 {
		t.Fatalf("blocked take after abort: %+v, %v", r.e, r.err)
	}
	if _, err := s.TakeIfExists(task{Job: "work"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("entry still present after recovery take: %v", err)
	}
}

// TestTxnNotifyOnAbortAndLapse: the two publishers besides a write and a
// commit — an aborted take re-publishing its entry, and a lapsed
// transaction aborted by the next operation's lock — each fire a listener
// exactly once, after the store's mutex is released: a listener that
// calls back into the space (here Count) does not deadlock.
func TestTxnNotifyOnAbortAndLapse(t *testing.T) {
	clk, s := virtualSpace()
	// within runs op and fails the test if it has not returned in 5 s of
	// wall time: a listener delivered under the mutex deadlocks in Count.
	within := func(what string, op func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); op() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no return in 5s — listener delivered under the store's mutex", what)
		}
	}
	mustWrite(t, s, task{Job: "a", ID: ip(1)})
	mustWrite(t, s, task{Job: "b", ID: ip(2)})
	var mu sync.Mutex
	var seen []string
	var counts []int
	if _, err := s.Notify(task{}, func(ev Event) {
		n, err := s.Count(task{Job: ev.Entry.(task).Job})
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		seen = append(seen, ev.Entry.(task).Job)
		counts = append(counts, n)
		mu.Unlock()
	}, Forever); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want []string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != len(want) {
			t.Fatalf("%s: listener saw %v, want %v", what, seen, want)
		}
		for i := range want {
			if seen[i] != want[i] || counts[i] != 1 {
				t.Fatalf("%s: listener saw %v counting %v, want %v each counting 1", what, seen, counts, want)
			}
		}
	}

	// An aborted take re-publishes its entry.
	tx := s.Begin(0)
	if _, err := s.TakeIfExists(task{Job: "a"}, tx); err != nil {
		t.Fatal(err)
	}
	check("take under a transaction", nil)
	within("abort", func() {
		if err := tx.Abort(); err != nil {
			t.Error(err)
		}
	})
	check("aborted take", []string{"a"})

	// A lapsed transaction is aborted by the next operation's lock.
	if _, err := s.TakeIfExists(task{Job: "b"}, s.Begin(ttl)); err != nil {
		t.Fatal(err)
	}
	clk.Run(func() { clk.Sleep(ttl + time.Nanosecond) })
	check("lapse before any operation", []string{"a"})
	within("the operation after the lapse", func() {
		if _, err := s.Count(task{Job: "none"}); err != nil {
			t.Error(err)
		}
	})
	check("lapsed take", []string{"a", "b"})
	if st := s.Stats(); st.TxnExpired != 1 || st.Notified != 2 {
		t.Fatalf("expired %d notified %d, want 1 2", st.TxnExpired, st.Notified)
	}
}

// maxTxnReadAllocs is what a read under a transaction allocates beyond the
// transaction's own begin and commit: the copy the caller gets (entry and
// payload) and the transaction's read list. It reads 4; 6 while each entry
// read under a transaction made a lock map of its own, kept for life.
const maxTxnReadAllocs = 4

// TestTxnReadLocksLeaveNothingBehind: read locks live in the space's
// table, one row per transaction and entry while the lock is held, and
// the entry counts its rows. Two readers keep the entry from every take;
// once one commits, the other may take it. Commit, abort, a lapse and a
// take by the locking transaction itself each leave no row and no count.
func TestTxnReadLocksLeaveNothingBehind(t *testing.T) {
	clk, s := virtualSpace()
	write := func(job string) *storedEntry {
		t.Helper()
		l, err := s.Write(task{Job: job, ID: ip(1)}, nil, Forever)
		if err != nil {
			t.Fatal(err)
		}
		return l.entry
	}
	read := func(job string, tx *Txn) {
		t.Helper()
		if _, err := s.ReadIfExists(task{Job: job}, tx); err != nil {
			t.Fatalf("read %s: %v", job, err)
		}
	}
	take := func(job string, tx *Txn, want error) {
		t.Helper()
		if _, err := s.TakeIfExists(task{Job: job}, tx); !errors.Is(err, want) {
			t.Fatalf("take %s: %v, want %v", job, err, want)
		}
	}
	released := func(what string, se *storedEntry) {
		t.Helper()
		s.lock()
		rows, readers := len(s.readLocks), se.readers
		s.unlock()
		if rows != 0 || readers != 0 {
			t.Fatalf("%s: %d read-lock rows, entry counts %d readers; want none", what, rows, readers)
		}
	}

	// Two readers: neither may take, nor may anyone else. A second read
	// under one holds the one lock.
	up := write("upgrade")
	t1, t2 := s.Begin(0), s.Begin(0)
	read("upgrade", t1)
	read("upgrade", t1)
	read("upgrade", t2)
	if up.readers != 2 || len(s.readLocks) != 2 {
		t.Fatalf("two readers: %d rows, entry counts %d; want 2 and 2", len(s.readLocks), up.readers)
	}
	take("upgrade", t1, ErrNoMatch)
	take("upgrade", t2, ErrNoMatch)
	take("upgrade", nil, ErrNoMatch)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	take("upgrade", t2, nil) // the upgrade: t2 is the one reader left
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	released("commit after taking its own read", up)
	if !up.removed {
		t.Fatal("the upgraded take's commit left the entry in the space")
	}

	// An abort, after a take of the transaction's own read too.
	ab := write("abort")
	t3 := s.Begin(0)
	read("abort", t3)
	take("abort", t3, nil)
	if err := t3.Abort(); err != nil {
		t.Fatal(err)
	}
	released("abort", ab)
	take("abort", nil, nil)

	// A lapse, ended by the next operation's lock.
	lp := write("lapse")
	read("lapse", s.Begin(ttl))
	take("lapse", nil, ErrNoMatch)
	clk.Run(func() { clk.Sleep(ttl + time.Nanosecond) })
	take("lapse", nil, nil)
	released("lapse", lp)

	if raceEnabled {
		return // the race detector allocates
	}
	const n = 200
	keys := make([]task, n+1)
	for i := range keys {
		keys[i] = task{Job: fmt.Sprintf("r%d", i)}
		mustWrite(t, s, task{Job: keys[i].Job, ID: ip(i)})
	}
	i := 0
	begun := func(read bool) func() {
		return func() {
			tx := s.Begin(0)
			if read {
				if _, err := s.ReadIfExists(keys[i], tx); err != nil {
					t.Fatal(err)
				}
				i++ // a fresh entry each time: none was read under a transaction before
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := testing.AllocsPerRun(n, begun(true)) - testing.AllocsPerRun(n, begun(false))
	t.Logf("a read under a transaction allocates %v times", got)
	if got > maxTxnReadAllocs {
		t.Fatalf("a read under a transaction allocates %v times, want ≤ %d", got, maxTxnReadAllocs)
	}
	if len(s.readLocks) != 0 {
		t.Fatalf("%d read-lock rows left after every transaction committed", len(s.readLocks))
	}
}
