package rebalance

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/tuplespace"
	"gospaces/internal/vclock"
)

// kv is a keyed entry: its Key drives ring placement and migration
// predicates.
type kv struct {
	Key string `space:"index"`
	Val int
}

// note has no index field — unkeyed, so splits must leave it in place
// while merges must move it.
type note struct {
	Val int
}

func init() {
	enc.RegisterType(kv{})
	enc.RegisterType(note{})
}

// newTappedSpace builds a space with a migration tap in its journal
// chain, as every elastic shard host wires it.
func newTappedSpace(t *testing.T, clk vclock.Clock) (*tuplespace.Space, *Tap) {
	t.Helper()
	s := tuplespace.New(clk)
	tap := NewTap(nil)
	if err := s.AttachJournal(tuplespace.NewJournalSink(tap)); err != nil {
		t.Fatal(err)
	}
	return s, tap
}

// movesTo selects entries whose key carries the "m-" prefix — a stand-in
// for KeyedTo's ring-ownership check with a deterministic answer.
func movesTo(e tuplespace.Entry) bool {
	k, ok, err := tuplespace.IndexKey(e)
	return err == nil && ok && len(k) >= 2 && k[:2] == "m-"
}

func countKV(t *testing.T, s *tuplespace.Space, tmpl tuplespace.Entry) int {
	t.Helper()
	n, err := s.Count(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestMigrationSplitMovesExactlyTheRange: fork, live-tail concurrent
// writers, settle, drain — the moved key range ends up wholly and only
// on the destination, everything else stays, nothing is lost or
// duplicated.
func TestMigrationSplitMovesExactlyTheRange(t *testing.T) {
	clk := vclock.NewReal()
	src, tap := newTappedSpace(t, clk)
	dst := tuplespace.New(clk)

	const preMoving, preStaying = 40, 30
	for i := 0; i < preMoving; i++ {
		if _, err := src.Write(kv{Key: fmt.Sprintf("m-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < preStaying; i++ {
		if _, err := src.Write(kv{Key: fmt.Sprintf("s-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Write(note{Val: 1}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}

	m := &Migration{
		Clock: clk,
		Src:   src,
		Tap:   tap,
		Dst:   tuplespace.NewApplier(dst),
		Pred:  movesTo,
	}

	// Writers keep hammering the source through fork and settle — the
	// buffered/live tap must carry their matching writes across.
	var wg sync.WaitGroup
	const writers, perWriter = 4, 25
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("m-live-%d-%d", w, i)
				if i%3 == 0 {
					key = fmt.Sprintf("s-live-%d-%d", w, i)
				}
				if _, err := src.Write(kv{Key: key, Val: i}, nil, tuplespace.Forever); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	moved, err := m.Fork()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if moved < preMoving {
		t.Fatalf("fork snapshot carried %d entries, want ≥ %d", moved, preMoving)
	}
	wg.Wait()
	if _, err := m.SettleUntilClear(5 * time.Second); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if _, err := m.Drain(0); err != nil {
		t.Fatalf("drain: %v", err)
	}

	liveMoving := 0
	liveStaying := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if i%3 == 0 {
				liveStaying++
			} else {
				liveMoving++
			}
		}
	}
	wantMoved := preMoving + liveMoving
	wantStay := preStaying + liveStaying
	if got := countKV(t, dst, kv{}); got != wantMoved {
		t.Fatalf("destination holds %d keyed entries, want %d", got, wantMoved)
	}
	if got := countKV(t, src, kv{}); got != wantStay {
		t.Fatalf("source holds %d keyed entries, want %d (non-matching only)", got, wantStay)
	}
	// Unkeyed entries never migrate on a split.
	if got := countKV(t, src, note{}); got != 1 {
		t.Fatalf("source unkeyed count = %d, want 1", got)
	}
	if got := countKV(t, dst, note{}); got != 0 {
		t.Fatalf("destination unkeyed count = %d, want 0", got)
	}
	// No duplicates slipped through: spot-check a seed key is singular.
	if got := countKV(t, dst, kv{Key: "m-0"}); got != 1 {
		t.Fatalf("m-0 count = %d on destination, want 1", got)
	}
}

// TestMigrationMergeMovesEverything: the merge predicate vacates the
// child completely, unkeyed entries included.
func TestMigrationMergeMovesEverything(t *testing.T) {
	clk := vclock.NewReal()
	src, tap := newTappedSpace(t, clk)
	dst := tuplespace.New(clk)
	for i := 0; i < 20; i++ {
		if _, err := src.Write(kv{Key: fmt.Sprintf("k-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Write(note{Val: 7}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	m := &Migration{Clock: clk, Src: src, Tap: tap, Dst: tuplespace.NewApplier(dst), Pred: Everything}
	if _, err := m.Fork(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SettleUntilClear(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Drain(0); err != nil {
		t.Fatal(err)
	}
	if got := countKV(t, src, kv{}) + countKV(t, src, note{}); got != 0 {
		t.Fatalf("source still holds %d entries after merge", got)
	}
	if k, n := countKV(t, dst, kv{}), countKV(t, dst, note{}); k != 20 || n != 1 {
		t.Fatalf("destination holds %d keyed + %d unkeyed, want 20 + 1", k, n)
	}
}

// TestMigrationAbortLeavesSourceIntact: aborting before any eviction is
// free — the source never stopped serving and still owns everything, and
// a retry forks cleanly against the same tap.
func TestMigrationAbortLeavesSourceIntact(t *testing.T) {
	clk := vclock.NewReal()
	src, tap := newTappedSpace(t, clk)
	dst := tuplespace.New(clk)
	for i := 0; i < 10; i++ {
		if _, err := src.Write(kv{Key: fmt.Sprintf("m-%d", i), Val: i}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	m := &Migration{Clock: clk, Src: src, Tap: tap, Dst: tuplespace.NewApplier(dst), Pred: movesTo}
	if _, err := m.Fork(); err != nil {
		t.Fatal(err)
	}
	m.Abort()
	if got := countKV(t, src, kv{}); got != 10 {
		t.Fatalf("source holds %d entries after abort, want 10", got)
	}
	// The destination copy is stale but harmless (it never entered the
	// ring); the retry resets and re-converges.
	m2 := &Migration{Clock: clk, Src: src, Tap: tap, Dst: tuplespace.NewApplier(tuplespace.New(clk)), Pred: movesTo}
	if n, err := m2.Fork(); err != nil || n != 10 {
		t.Fatalf("retry fork: n=%d err=%v", n, err)
	}
	if _, err := m2.SettleUntilClear(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Drain(0); err != nil {
		t.Fatal(err)
	}
	if got := countKV(t, src, kv{}); got != 0 {
		t.Fatalf("source holds %d matching entries after retry, want 0", got)
	}
}

// TestMigrationSettleWaitsForLockedEntries: an entry held under a
// transaction cannot be evicted mid-flight; the settle loop must wait it
// out and move it only after the transaction resolves.
func TestMigrationSettleWaitsForLockedEntries(t *testing.T) {
	clk := vclock.NewReal()
	src, tap := newTappedSpace(t, clk)
	dst := tuplespace.New(clk)
	if _, err := src.Write(kv{Key: "m-held", Val: 1}, nil, tuplespace.Forever); err != nil {
		t.Fatal(err)
	}
	tx := src.Begin(time.Minute)
	if _, err := src.Read(kv{Key: "m-held"}, tx, time.Second); err != nil {
		t.Fatal(err)
	}
	m := &Migration{Clock: clk, Src: src, Tap: tap, Dst: tuplespace.NewApplier(dst), Pred: movesTo}
	if _, err := m.Fork(); err != nil {
		t.Fatal(err)
	}
	if _, locked, err := m.SettlePass(); err != nil || locked != 1 {
		t.Fatalf("settle pass: locked=%d err=%v, want the held entry reported", locked, err)
	}
	if _, err := m.SettleUntilClear(50 * time.Millisecond); err == nil {
		t.Fatal("settle returned clear while a transaction held the range")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SettleUntilClear(time.Second); err != nil {
		t.Fatalf("settle after commit: %v", err)
	}
	if _, err := m.Drain(0); err != nil {
		t.Fatal(err)
	}
	if got := countKV(t, dst, kv{Key: "m-held"}); got != 1 {
		t.Fatalf("held entry count on destination = %d, want exactly 1", got)
	}
	if got := countKV(t, src, kv{}); got != 0 {
		t.Fatalf("source still holds %d entries", got)
	}
}
