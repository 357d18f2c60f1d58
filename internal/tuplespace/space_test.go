package tuplespace

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// task is a representative entry type used across the tests; pointer fields
// are matchable scalars per the package's matching rules.
type task struct {
	Job   string
	ID    *int
	Round *int
	Data  []float64
}

type result struct {
	Job string
	ID  *int
	Sum float64
}

func ip(i int) *int { return &i }

func newRealSpace() *Space { return New(vclock.NewReal()) }

func TestWriteThenTake(t *testing.T) {
	s := newRealSpace()
	if _, err := s.Write(task{Job: "mc", ID: ip(1)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	got, err := s.Take(task{Job: "mc"}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e := got.(task)
	if e.Job != "mc" || *e.ID != 1 {
		t.Fatalf("took %+v", e)
	}
	// Space is now empty for this template.
	if _, err := s.TakeIfExists(task{Job: "mc"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("second take err = %v, want ErrNoMatch", err)
	}
}

func TestReadDoesNotConsume(t *testing.T) {
	s := newRealSpace()
	if _, err := s.Write(task{Job: "rt", ID: ip(7)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Read(task{Job: "rt"}, nil, time.Second); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if n, _ := s.Count(task{}); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestTemplateMatchingRules(t *testing.T) {
	s := newRealSpace()
	mustWrite(t, s, task{Job: "a", ID: ip(1), Round: ip(2)})
	mustWrite(t, s, task{Job: "b", ID: ip(1)})
	mustWrite(t, s, task{Job: "a", ID: ip(2)})

	// Exact field match.
	got, err := s.ReadIfExists(task{Job: "a", ID: ip(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(task); g.Job != "a" || *g.ID != 2 {
		t.Fatalf("got %+v", g)
	}
	// Wildcard template matches anything of the type.
	if n, _ := s.Count(task{}); n != 3 {
		t.Fatalf("wildcard count = %d, want 3", n)
	}
	// Non-matching value.
	if _, err := s.ReadIfExists(task{Job: "c"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
	// Different type never matches.
	if _, err := s.ReadIfExists(result{}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
}

func TestPointerEntriesAccepted(t *testing.T) {
	s := newRealSpace()
	mustWrite(t, s, &task{Job: "p", ID: ip(3)})
	got, err := s.Take(&task{Job: "p"}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(task); *g.ID != 3 {
		t.Fatalf("got %+v", g)
	}
}

func TestNonStructRejected(t *testing.T) {
	s := newRealSpace()
	if _, err := s.Write(42, nil, Forever); !errors.Is(err, ErrNotStruct) {
		t.Fatalf("err = %v, want ErrNotStruct", err)
	}
	if _, err := s.Read("nope", nil, 0); !errors.Is(err, ErrNotStruct) {
		t.Fatalf("err = %v, want ErrNotStruct", err)
	}
	var nilTask *task
	if _, err := s.Write(nilTask, nil, Forever); !errors.Is(err, ErrNotStruct) {
		t.Fatalf("nil ptr err = %v, want ErrNotStruct", err)
	}
}

func TestEntriesAreCopied(t *testing.T) {
	s := newRealSpace()
	data := []float64{1, 2, 3}
	mustWrite(t, s, task{Job: "c", Data: data})
	data[0] = 99 // mutating the caller's slice must not affect the space
	got, err := s.Read(task{Job: "c"}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(task); g.Data[0] != 1 {
		t.Fatalf("space saw caller mutation: %+v", g)
	}
	// Mutating the returned copy must not affect the stored entry.
	got.(task).Data[1] = -5
	got2, _ := s.Read(task{Job: "c"}, nil, time.Second)
	if g := got2.(task); g.Data[1] != 2 {
		t.Fatalf("reader mutation leaked into space: %+v", g)
	}
}

func TestBlockingTakeWokenByWrite(t *testing.T) {
	s := newRealSpace()
	done := make(chan Entry, 1)
	go func() {
		e, err := s.Take(task{Job: "late"}, nil, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- e
	}()
	time.Sleep(10 * time.Millisecond)
	mustWrite(t, s, task{Job: "late", ID: ip(9)})
	select {
	case e := <-done:
		if *e.(task).ID != 9 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked take never woke")
	}
}

func TestBlockingTakeTimeout(t *testing.T) {
	s := newRealSpace()
	start := time.Now()
	_, err := s.Take(task{Job: "never"}, nil, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timed out too early")
	}
}

func TestOneEntryWakesOneTakerAndAllReaders(t *testing.T) {
	s := newRealSpace()
	const readers, takers = 3, 3
	var wg sync.WaitGroup
	takeOK := make(chan bool, takers)
	readOK := make(chan bool, readers)
	for i := 0; i < takers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Take(task{Job: "w"}, nil, 200*time.Millisecond)
			takeOK <- err == nil
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Read(task{Job: "w"}, nil, 200*time.Millisecond)
			readOK <- err == nil
		}()
	}
	time.Sleep(20 * time.Millisecond)
	mustWrite(t, s, task{Job: "w", ID: ip(1)})
	wg.Wait()
	gotTakes := 0
	for i := 0; i < takers; i++ {
		if <-takeOK {
			gotTakes++
		}
	}
	if gotTakes != 1 {
		t.Fatalf("%d takers succeeded, want exactly 1", gotTakes)
	}
	gotReads := 0
	for i := 0; i < readers; i++ {
		if <-readOK {
			gotReads++
		}
	}
	if gotReads != readers {
		t.Fatalf("%d readers succeeded, want %d", gotReads, readers)
	}
}

func TestLeaseExpiry(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		mustWrite(t, s, task{Job: "ttl", ID: ip(1)})
		l, err := s.Write(task{Job: "ttl", ID: ip(2)}, nil, 100*time.Millisecond)
		if err != nil {
			t.Error(err)
		}
		clk.Sleep(200 * time.Millisecond)
		if n, _ := s.Count(task{Job: "ttl"}); n != 1 {
			t.Errorf("count after expiry = %d, want 1", n)
		}
		if err := l.Renew(time.Second); !errors.Is(err, ErrLeaseExpired) {
			t.Errorf("renew after expiry err = %v, want ErrLeaseExpired", err)
		}
	})
}

func TestLeaseRenewKeepsEntryAlive(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		l, err := s.Write(task{Job: "r"}, nil, 100*time.Millisecond)
		if err != nil {
			t.Error(err)
		}
		for i := 0; i < 5; i++ {
			clk.Sleep(50 * time.Millisecond)
			if err := l.Renew(100 * time.Millisecond); err != nil {
				t.Errorf("renew %d: %v", i, err)
			}
		}
		if n, _ := s.Count(task{Job: "r"}); n != 1 {
			t.Errorf("renewed entry gone (count %d)", n)
		}
		if exp := l.Expiration(); exp.IsZero() {
			t.Error("expiration should be set")
		}
	})
}

func TestLeaseCancel(t *testing.T) {
	s := newRealSpace()
	l, err := s.Write(task{Job: "x"}, nil, Forever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(task{Job: "x"}); n != 0 {
		t.Fatalf("count after cancel = %d", n)
	}
	if err := l.Cancel(); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("double cancel err = %v", err)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	s := newRealSpace()
	errc := make(chan error, 1)
	go func() {
		_, err := s.Take(task{}, nil, 5*time.Second)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := s.Write(task{}, nil, Forever); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
	s.Close() // idempotent
}

func TestStatsCounters(t *testing.T) {
	s := newRealSpace()
	mustWrite(t, s, task{Job: "s", ID: ip(1)})
	if _, err := s.Read(task{Job: "s"}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Take(task{Job: "s"}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	_, _ = s.Take(task{Job: "s"}, nil, time.Millisecond) // timeout
	st := s.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.Takes != 1 || st.Timeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func mustWrite(t *testing.T, s *Space, e Entry) {
	t.Helper()
	if _, err := s.Write(e, nil, Forever); err != nil {
		t.Fatal(err)
	}
}

// --- transactions ---

func TestTxnWriteInvisibleUntilCommit(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	tx := s.Begin(0)
	if _, err := s.Write(task{Job: "t"}, tx, Forever); err != nil {
		t.Fatal(err)
	}
	// Invisible outside the transaction…
	if _, err := s.ReadIfExists(task{Job: "t"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("outside read err = %v, want ErrNoMatch", err)
	}
	// …but visible inside it.
	if _, err := s.ReadIfExists(task{Job: "t"}, tx); err != nil {
		t.Fatalf("inside read: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadIfExists(task{Job: "t"}, nil); err != nil {
		t.Fatalf("after commit: %v", err)
	}
}

func TestTxnWriteDiscardedOnAbort(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	tx := s.Begin(0)
	if _, err := s.Write(task{Job: "t"}, tx, Forever); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(task{}); n != 0 {
		t.Fatalf("count after abort = %d", n)
	}
}

func TestTxnTakeReappearsOnAbort(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	mustWrite(t, s, task{Job: "t", ID: ip(5)})
	tx := s.Begin(0)
	if _, err := s.Take(task{Job: "t"}, tx, time.Second); err != nil {
		t.Fatal(err)
	}
	// Taken entry invisible to everyone while the txn is active.
	if _, err := s.ReadIfExists(task{Job: "t"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("read of taken entry err = %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := s.TakeIfExists(task{Job: "t"}, nil)
	if err != nil {
		t.Fatalf("entry did not reappear: %v", err)
	}
	if *got.(task).ID != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestTxnTakeGoneOnCommit(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	mustWrite(t, s, task{Job: "t"})
	tx := s.Begin(0)
	if _, err := s.Take(task{Job: "t"}, tx, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(task{}); n != 0 {
		t.Fatalf("count after committed take = %d", n)
	}
}

func TestTxnReadLockBlocksOtherTake(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	mustWrite(t, s, task{Job: "t"})
	tx := s.Begin(0)
	if _, err := s.Read(task{Job: "t"}, tx, time.Second); err != nil {
		t.Fatal(err)
	}
	// Another party can read but not take.
	if _, err := s.ReadIfExists(task{Job: "t"}, nil); err != nil {
		t.Fatalf("concurrent read: %v", err)
	}
	if _, err := s.TakeIfExists(task{Job: "t"}, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("take of read-locked entry err = %v, want ErrNoMatch", err)
	}
	// The locking transaction itself may take it.
	if _, err := s.TakeIfExists(task{Job: "t"}, tx); err != nil {
		t.Fatalf("owner take: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnReadLockReleasedOnCommit(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	mustWrite(t, s, task{Job: "t"})
	tx := s.Begin(0)
	if _, err := s.Read(task{Job: "t"}, tx, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TakeIfExists(task{Job: "t"}, nil); err != nil {
		t.Fatalf("take after lock release: %v", err)
	}
}

func TestTxnInactiveRejected(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	tx := s.Begin(0)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(task{}, tx, Forever); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("write under committed txn err = %v", err)
	}
	if _, err := s.Take(task{}, tx, time.Millisecond); !errors.Is(err, ErrTxnInactive) {
		t.Fatalf("take under committed txn err = %v", err)
	}
}

func TestTxnExpiredLeaseAborts(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		mustWrite(t, s, task{Job: "t"})
		tx := s.Begin(50 * time.Millisecond)
		if _, err := s.Take(task{Job: "t"}, tx, time.Second); err != nil {
			t.Error(err)
		}
		clk.Sleep(100 * time.Millisecond)
		if err := tx.Commit(); !errors.Is(err, ErrTxnInactive) {
			t.Errorf("commit of expired txn err = %v", err)
		}
		// The abort path must have returned the task.
		if n, _ := s.Count(task{}); n != 1 {
			t.Errorf("task lost after expired txn: count = %d", n)
		}
	})
}

// --- notify ---

func TestNotifyOnWrite(t *testing.T) {
	s := newRealSpace()
	var mu sync.Mutex
	var events []Event
	reg, err := s.Notify(task{Job: "n"}, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}, Forever)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, task{Job: "n", ID: ip(1)})
	mustWrite(t, s, task{Job: "other"}) // must not notify
	mustWrite(t, s, task{Job: "n", ID: ip(2)})
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Sequence != 1 || events[1].Sequence != 2 {
		t.Fatalf("sequences %d,%d", events[0].Sequence, events[1].Sequence)
	}
	if events[0].Registration != reg.ID() {
		t.Fatalf("registration id mismatch")
	}
	if *events[1].Entry.(task).ID != 2 {
		t.Fatalf("event entry %+v", events[1].Entry)
	}
}

func TestNotifyFiresOnTxnCommitNotWrite(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	var n int
	var mu sync.Mutex
	if _, err := s.Notify(task{}, func(Event) { mu.Lock(); n++; mu.Unlock() }, Forever); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin(0)
	if _, err := s.Write(task{Job: "t"}, tx, Forever); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if n != 0 {
		mu.Unlock()
		t.Fatal("notified before commit")
	}
	mu.Unlock()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Fatalf("notified %d times after commit, want 1", n)
	}
}

func TestNotifyCancel(t *testing.T) {
	s := newRealSpace()
	var n int
	var mu sync.Mutex
	reg, err := s.Notify(task{}, func(Event) { mu.Lock(); n++; mu.Unlock() }, Forever)
	if err != nil {
		t.Fatal(err)
	}
	reg.Cancel()
	mustWrite(t, s, task{})
	mu.Lock()
	defer mu.Unlock()
	if n != 0 {
		t.Fatalf("cancelled registration fired %d times", n)
	}
}

// Entry types an interface may hold in place (a pointer-shaped struct) or
// whose value is a word or less.
type (
	ptrDoc   struct{ P *int }
	smallDoc struct{ N int32 }
	emptyDoc struct{}
)

// TestWordSizedEntries: the store keeps a value as the data word of an
// interface holding it, which for a pointer-shaped struct is the value
// itself and for any other the value's address. Entries of either kind,
// written by a client or decoded, by value or by pointer, read back, are
// shared and taken as they were written.
func TestWordSizedEntries(t *testing.T) {
	s := newRealSpace()
	writes := []func(Entry) (EntryLease, error){
		func(e Entry) (EntryLease, error) { return s.Write(e, nil, Forever) },
		func(e Entry) (EntryLease, error) { return s.WriteDecoded(e, nil, Forever, OpToken{}) },
	}
	for _, write := range writes {
		for _, e := range []Entry{ptrDoc{P: ip(7)}, &ptrDoc{P: ip(7)}, smallDoc{N: 7}, &smallDoc{N: 7}, emptyDoc{}, &emptyDoc{}} {
			if _, err := write(e); err != nil {
				t.Fatal(err)
			}
			tmpl := reflect.Indirect(reflect.ValueOf(e)).Interface() // a pointer field matches by what it points at
			for _, lookup := range []func() (Entry, error){
				func() (Entry, error) { return s.ReadIfExists(tmpl, nil) },
				func() (Entry, error) { return s.LookupShared(false, false, tmpl, nil, 0, OpToken{}) },
				func() (Entry, error) { return s.TakeIfExists(tmpl, nil) },
			} {
				if got, err := lookup(); err != nil || !reflect.DeepEqual(got, tmpl) {
					t.Fatalf("%T written as %T: got %#v, %v; want %#v", tmpl, e, got, err, tmpl)
				}
			}
		}
	}
}
