package tuplespace

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// keyedEntry carries an index key field, for IndexKey tests.
type keyedEntry struct {
	Key  string `space:"index"`
	Body int
}

func TestIndexKey(t *testing.T) {
	key, ok, err := IndexKey(keyedEntry{Key: "k1", Body: 2})
	if err != nil || !ok || key != "k1" {
		t.Fatalf("IndexKey(keyed) = %q, %v, %v; want \"k1\", true, nil", key, ok, err)
	}
	// Zero key field is a wildcard: not routable.
	if _, ok, err := IndexKey(keyedEntry{Body: 2}); err != nil || ok {
		t.Fatalf("IndexKey(zero key) ok = %v, err = %v; want false, nil", ok, err)
	}
	// Types without an index tag have no key.
	if _, ok, err := IndexKey(task{Job: "mc"}); err != nil || ok {
		t.Fatalf("IndexKey(unkeyed type) ok = %v, err = %v; want false, nil", ok, err)
	}
	// Pointers are followed, like everywhere else in the package.
	if key, ok, _ := IndexKey(&keyedEntry{Key: "p"}); !ok || key != "p" {
		t.Fatalf("IndexKey(pointer) = %q, %v; want \"p\", true", key, ok)
	}
	if _, _, err := IndexKey(42); err == nil {
		t.Fatal("IndexKey(non-struct) succeeded, want error")
	}
}

func TestTypeCounts(t *testing.T) {
	s := newRealSpace()
	for i := 0; i < 3; i++ {
		if _, err := s.Write(task{Job: "tc", ID: ip(i)}, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Write(result{Job: "tc", ID: ip(0), Sum: 1}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	counts := s.TypeCounts()
	taskName, _ := TypeName(task{})
	resultName, _ := TypeName(result{})
	if counts[taskName] != 3 || counts[resultName] != 1 {
		t.Fatalf("counts = %v, want %s:3 %s:1", counts, taskName, resultName)
	}

	// Taking an entry drops it from the counts.
	if _, err := s.Take(task{Job: "tc"}, nil, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.TypeCounts()[taskName]; got != 2 {
		t.Fatalf("after take, task count = %d, want 2", got)
	}

	// Expired entries are excluded. Use a real-clock space and let the
	// lease lapse.
	if _, err := s.Write(task{Job: "exp", ID: ip(99)}, nil, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if got := s.TypeCounts()[taskName]; got != 2 {
		t.Fatalf("after expiry, task count = %d, want 2", got)
	}

	// Txn-held provisional writes are still counted as live (they occupy
	// storage), matching Stats.EntriesLive semantics.
	tx := s.Begin(0)
	if _, err := s.Write(task{Job: "txn", ID: ip(5)}, tx, Forever); err != nil {
		t.Fatal(err)
	}
	if got := s.TypeCounts()[taskName]; got != 3 {
		t.Fatalf("with txn-held write, task count = %d, want 3", got)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := s.TypeCounts()[taskName]; got != 2 {
		t.Fatalf("after abort, task count = %d, want 2", got)
	}
}

func TestStatsWaiting(t *testing.T) {
	s := newRealSpace()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Take(task{Job: "w"}, nil, 5*time.Second); err != nil {
			t.Errorf("blocked take: %v", err)
		}
	}()
	// Wait until the taker has parked.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("taker never showed up in Stats.Waiting")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Write(task{Job: "w", ID: ip(1)}, nil, Forever); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := s.Stats().Waiting; got != 0 {
		t.Fatalf("after satisfying the take, Waiting = %d, want 0", got)
	}
}

// waitFor polls cond (a Stats reading) for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestTokenedParkedTakesAreCounted: a tokened blocking take parks through
// the same door as an untokened one — counted in Stats.Waiting while
// parked, uncounted when satisfied or timed out. Once they parked
// uncounted, and every wake-up drove the counter negative.
func TestTokenedParkedTakesAreCounted(t *testing.T) {
	const n = 4
	s := newRealSpace()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			timeout := 5 * time.Second
			if i == 0 {
				timeout = 30 * time.Millisecond // this one times out
			}
			_, err := s.TakeTok(task{Job: "w", ID: ip(i)}, nil, timeout, tok("c", uint64(i+1)))
			if i == 0 && !errors.Is(err, ErrTimeout) {
				t.Errorf("take 0: %v, want ErrTimeout", err)
			}
			if i != 0 && err != nil {
				t.Errorf("take %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, "every taker to park", func() bool { return s.Stats().Blocked == n })
	if got := s.Stats().Waiting; got != n {
		t.Fatalf("%d tokened takes parked, Waiting = %d", n, got)
	}
	waitFor(t, "take 0 to time out", func() bool { return s.Stats().Timeouts == 1 })
	if got := s.Stats().Waiting; got != n-1 {
		t.Fatalf("after one timeout, Waiting = %d, want %d", got, n-1)
	}
	for i := 1; i < n; i++ {
		mustWrite(t, s, task{Job: "w", ID: ip(i)})
		if got := s.Stats().Waiting; got != n-1-i {
			t.Fatalf("after %d satisfied, Waiting = %d, want %d", i, got, n-1-i)
		}
	}
	wg.Wait()
	if got := s.Stats().Waiting; got != 0 {
		t.Fatalf("everyone gone, Waiting = %d", got)
	}
}
