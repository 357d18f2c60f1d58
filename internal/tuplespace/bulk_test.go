package tuplespace

import (
	"testing"
	"time"

	"gospaces/internal/vclock"
)

func TestTakeAllDrainsMatching(t *testing.T) {
	s := newRealSpace()
	for i := 0; i < 5; i++ {
		mustWrite(t, s, task{Job: "bulk", ID: ip(i)})
	}
	mustWrite(t, s, task{Job: "other", ID: ip(99)})

	got, err := s.TakeAll(task{Job: "bulk"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("took %d, want 5", len(got))
	}
	if n, _ := s.Count(task{}); n != 1 {
		t.Fatalf("remaining = %d, want 1 (the other job)", n)
	}
}

func TestTakeAllRespectsMax(t *testing.T) {
	s := newRealSpace()
	for i := 0; i < 10; i++ {
		mustWrite(t, s, task{Job: "m", ID: ip(i)})
	}
	got, err := s.TakeAll(task{Job: "m"}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("took %d, want 3", len(got))
	}
	if n, _ := s.Count(task{Job: "m"}); n != 7 {
		t.Fatalf("remaining = %d, want 7", n)
	}
}

func TestReadAllDoesNotConsume(t *testing.T) {
	s := newRealSpace()
	for i := 0; i < 4; i++ {
		mustWrite(t, s, task{Job: "r", ID: ip(i)})
	}
	got, err := s.ReadAll(task{Job: "r"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("read %d, want 4", len(got))
	}
	if n, _ := s.Count(task{Job: "r"}); n != 4 {
		t.Fatalf("count = %d after ReadAll", n)
	}
}

func TestBulkEmptyResult(t *testing.T) {
	s := newRealSpace()
	got, err := s.TakeAll(task{Job: "none"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d entries from empty space", len(got))
	}
}

func TestTakeAllUnderTxnReappearsOnAbort(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	for i := 0; i < 3; i++ {
		mustWrite(t, s, task{Job: "t", ID: ip(i)})
	}
	tx := s.Begin(0)
	got, err := s.TakeAll(task{Job: "t"}, tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("took %d", len(got))
	}
	if n, _ := s.Count(task{Job: "t"}); n != 0 {
		t.Fatalf("visible during txn = %d", n)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(task{Job: "t"}); n != 3 {
		t.Fatalf("after abort = %d, want 3", n)
	}
}

func TestReadAllUnderTxnBlocksTakes(t *testing.T) {
	clk := vclock.NewReal()
	s := New(clk)
	mustWrite(t, s, task{Job: "rl"})
	tx := s.Begin(0)
	if _, err := s.ReadAll(task{Job: "rl"}, tx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TakeIfExists(task{Job: "rl"}, nil); err == nil {
		t.Fatal("take of read-locked entry succeeded")
	}
	_ = tx.Commit()
	if _, err := s.TakeIfExists(task{Job: "rl"}, nil); err != nil {
		t.Fatalf("take after release: %v", err)
	}
}

func TestBulkSkipsExpired(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	clk.Run(func() {
		if _, err := s.Write(task{Job: "e", ID: ip(1)}, nil, 10*time.Millisecond); err != nil {
			t.Error(err)
		}
		mustWrite(t, s, task{Job: "e", ID: ip(2)})
		clk.Sleep(50 * time.Millisecond)
		got, err := s.TakeAll(task{Job: "e"}, nil, 0)
		if err != nil {
			t.Error(err)
		}
		if len(got) != 1 || *got[0].(task).ID != 2 {
			t.Errorf("got %+v, want only ID 2", got)
		}
	})
}

func TestBulkRejectsNonStruct(t *testing.T) {
	s := newRealSpace()
	if _, err := s.ReadAll(42, nil, 0); err == nil {
		t.Fatal("non-struct accepted")
	}
}

// Conservation property: under concurrent writers, takers and bulk
// takers, every written entry is taken exactly once or still present.
func TestPropConservationUnderConcurrency(t *testing.T) {
	s := newRealSpace()
	const writers, perWriter = 4, 50
	done := make(chan []Entry, writers+2)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				if _, err := s.Write(task{Job: "c", ID: ip(id)}, nil, Forever); err != nil {
					t.Error(err)
				}
			}
			done <- nil
		}(w)
	}
	for g := 0; g < 2; g++ {
		go func() {
			var mine []Entry
			for {
				e, err := s.Take(task{Job: "c"}, nil, 100*time.Millisecond)
				if err != nil {
					break
				}
				mine = append(mine, e)
			}
			done <- mine
		}()
	}
	var taken []Entry
	for i := 0; i < writers+2; i++ {
		taken = append(taken, <-done...)
	}
	rest, err := s.TakeAll(task{Job: "c"}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	taken = append(taken, rest...)
	seen := map[int]int{}
	for _, e := range taken {
		seen[*e.(task).ID]++
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("saw %d distinct entries, want %d", len(seen), writers*perWriter)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("entry %d taken %d times", id, n)
		}
	}
}
