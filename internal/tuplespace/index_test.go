package tuplespace

import (
	"fmt"
	"testing"
	"time"

	"gospaces/internal/vclock"
)

// idxTask declares its Job field as the space index key.
type idxTask struct {
	Job  string `space:"index"`
	ID   *int
	Data []float64
}

func TestIndexedLookupFindsEntries(t *testing.T) {
	s := newRealSpace()
	for i := 0; i < 5; i++ {
		mustWrite(t, s, idxTask{Job: fmt.Sprintf("j%d", i%2), ID: ip(i)})
	}
	// Template fixing the indexed field: bucket scan.
	got, err := s.Take(idxTask{Job: "j1", ID: ip(3)}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if *got.(idxTask).ID != 3 {
		t.Fatalf("got %+v", got)
	}
	// Wildcard template: full scan still sees everything.
	if n, _ := s.Count(idxTask{}); n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	// Drain the j0 bucket completely (IDs 0, 2, 4).
	for i := 0; i < 3; i++ {
		if _, err := s.Take(idxTask{Job: "j0"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.TakeIfExists(idxTask{Job: "j0"}, nil); err == nil {
		t.Fatal("bucket not drained")
	}
	// The other bucket is untouched (ID 3 was taken earlier; ID 1 left).
	if n, _ := s.Count(idxTask{Job: "j1"}); n != 1 {
		t.Fatalf("j1 count = %d, want 1", n)
	}
}

func TestIndexedAndUnindexedAgree(t *testing.T) {
	s := newRealSpace()
	// Same data in an indexed and an unindexed type; every operation
	// must behave identically.
	for i := 0; i < 20; i++ {
		mustWrite(t, s, idxTask{Job: fmt.Sprintf("g%d", i%4), ID: ip(i)})
		mustWrite(t, s, task{Job: fmt.Sprintf("g%d", i%4), ID: ip(i)})
	}
	for i := 0; i < 20; i++ {
		job := fmt.Sprintf("g%d", i%4)
		a, err := s.Take(idxTask{Job: job, ID: ip(i)}, nil, time.Second)
		if err != nil {
			t.Fatalf("indexed take %d: %v", i, err)
		}
		b, err := s.Take(task{Job: job, ID: ip(i)}, nil, time.Second)
		if err != nil {
			t.Fatalf("unindexed take %d: %v", i, err)
		}
		if *a.(idxTask).ID != *b.(task).ID {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if n, _ := s.Count(idxTask{}); n != 0 {
		t.Fatalf("indexed leftover %d", n)
	}
}

func TestIndexedExpiryInBucket(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		if _, err := s.Write(idxTask{Job: "e", ID: ip(1)}, nil, 10*time.Millisecond); err != nil {
			t.Error(err)
		}
		clk.Sleep(50 * time.Millisecond)
		if _, err := s.TakeIfExists(idxTask{Job: "e"}, nil); err == nil {
			t.Error("expired entry served from bucket")
		}
	})
}

func TestIndexedBlockingTakeWoken(t *testing.T) {
	s := newRealSpace()
	done := make(chan Entry, 1)
	go func() {
		e, err := s.Take(idxTask{Job: "late"}, nil, 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		done <- e
	}()
	time.Sleep(10 * time.Millisecond)
	mustWrite(t, s, idxTask{Job: "late", ID: ip(7)})
	select {
	case e := <-done:
		if *e.(idxTask).ID != 7 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("indexed blocking take never woke")
	}
}

// TestKeyedTakesDoNotGrowTheTypeList: a keyed take compacts its index
// bucket only, so every keyed write+take pair used to leave one dead
// pointer (pinning the entry's payload) in the per-type list until an
// unkeyed scan came by. Fifty thousand pairs must leave the list no longer
// than the reap threshold allows, through direct takes, blocked takes
// satisfied by the write, and takes committed under a transaction; and
// what is left behind must still scan in write order.
func TestKeyedTakesDoNotGrowTheTypeList(t *testing.T) {
	s := newRealSpace()
	ti, _, err := infoFor(idxTask{})
	if err != nil {
		t.Fatal(err)
	}
	name := ti.name
	listLen := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.types[name].all.items)
	}
	for i := 0; i < 3; i++ { // residents the pairs must not disturb
		mustWrite(t, s, idxTask{Job: "resident", ID: ip(i + 1)})
	}
	const pairs = 50_000
	for i := 0; i < pairs; i++ {
		job := fmt.Sprintf("k%d", i%257)
		mustWrite(t, s, idxTask{Job: job, ID: ip(i + 1)})
		if _, err := s.TakeIfExists(idxTask{Job: job}, nil); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if n := listLen(); n > 2*reapMin+8 {
			t.Fatalf("after %d pairs the type list holds %d entries", i+1, n)
		}
	}
	for i := 0; i < 4*reapMin; i++ {
		mustWrite(t, s, idxTask{Job: "txn", ID: ip(i + 1)})
		tx := s.Begin(time.Minute)
		if _, err := s.Take(idxTask{Job: "txn"}, tx, time.Second); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := listLen(); n > 2*reapMin+8 {
		t.Fatalf("after transactional pairs the type list holds %d entries", n)
	}
	for want := 1; want <= 3; want++ {
		got, err := s.TakeIfExists(idxTask{}, nil) // unkeyed: list order
		if err != nil || *got.(idxTask).ID != want {
			t.Fatalf("resident %d: got %+v, %v", want, got, err)
		}
	}
}
