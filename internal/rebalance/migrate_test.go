package rebalance

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/shard"
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

// sourceOf is a migration Source that never fails over.
func sourceOf(s *tuplespace.Space, tap *Tap) func() (*tuplespace.Space, *Tap) {
	return func() (*tuplespace.Space, *Tap) { return s, tap }
}

// movesTo selects entries whose key carries the "m-" prefix — a stand-in
// for Moving's ring-ownership check with a deterministic answer.
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
		Clock:  clk,
		Source: sourceOf(src, tap),
		Dst:    tuplespace.NewApplier(dst),
		Pred:   movesTo,
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

	moved, _, err := m.Fork()
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
	everything, _ := Moving(func(string) string { return "parent" }, "child", true)
	m := &Migration{Clock: clk, Source: sourceOf(src, tap), Dst: tuplespace.NewApplier(dst), Pred: everything}
	if _, _, err := m.Fork(); err != nil {
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
	m := &Migration{Clock: clk, Source: sourceOf(src, tap), Dst: tuplespace.NewApplier(dst), Pred: movesTo}
	if _, _, err := m.Fork(); err != nil {
		t.Fatal(err)
	}
	m.Abort()
	if got := countKV(t, src, kv{}); got != 10 {
		t.Fatalf("source holds %d entries after abort, want 10", got)
	}
	// The destination copy is stale but harmless (it never entered the
	// ring); the retry resets and re-converges.
	m2 := &Migration{Clock: clk, Source: sourceOf(src, tap), Dst: tuplespace.NewApplier(tuplespace.New(clk)), Pred: movesTo}
	if n, _, err := m2.Fork(); err != nil || n != 10 {
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
	m := &Migration{Clock: clk, Source: sourceOf(src, tap), Dst: tuplespace.NewApplier(dst), Pred: movesTo}
	if _, _, err := m.Fork(); err != nil {
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

// TestMovingSplitAndMerge pins the ownership predicates on real rings.
// Split: of the parent's keys, exactly those the new ring gives the child
// move (the labels only move parent → child, so "another member" is the
// child), unkeyed entries stay, and the memos of moving keys plus every
// unkeyed memo ship. Merge: the leaving child hands over every entry and
// every memo.
func TestMovingSplitAndMerge(t *testing.T) {
	const vnodes = 16
	cur := shard.Topology{Epoch: 1}
	for _, id := range []string{"a", "parent", "c"} {
		cur.Members = append(cur.Members, shard.TopoMember{ID: id, Labels: shard.DefaultLabels(id, vnodes)})
	}
	keep, give := shard.SplitLabels(cur.Members[1].Labels)
	split := shard.Topology{Epoch: 2, Members: []shard.TopoMember{
		cur.Members[0], {ID: "parent", Labels: keep}, cur.Members[2], {ID: "child", Labels: give},
	}}
	before, after := shard.OwnerFunc(cur), shard.OwnerFunc(split)
	pred, memoPred := Moving(after, "parent", false)
	moved, stayed := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k-%d", i)
		if before(key) != "parent" {
			continue // not on the parent: no split of it sees this key
		}
		toChild := after(key) == "child"
		if !toChild && after(key) != "parent" {
			t.Fatalf("split moved key %s to %s, not to the child", key, after(key))
		}
		if got := pred(kv{Key: key}); got != toChild {
			t.Fatalf("split pred(%s) = %v, want %v", key, got, toChild)
		}
		if got := memoPred(key, true); got != toChild {
			t.Fatalf("split memoPred(%s) = %v, want %v", key, got, toChild)
		}
		if toChild {
			moved++
		} else {
			stayed++
		}
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("split moved %d and kept %d of the parent's keys; want both", moved, stayed)
	}
	if pred(note{Val: 1}) {
		t.Fatal("split moves an unkeyed entry")
	}
	if !memoPred("", false) {
		t.Fatal("split keeps an unkeyed memo back")
	}

	merged := shard.Topology{Epoch: 3, Members: []shard.TopoMember{
		cur.Members[0], {ID: "parent", Labels: append(append([]string(nil), keep...), give...)}, cur.Members[2],
	}}
	pred, memoPred = Moving(shard.OwnerFunc(merged), "child", true)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k-%d", i)
		if !pred(kv{Key: key}) || !memoPred(key, true) {
			t.Fatalf("merge keeps key %s back", key)
		}
	}
	if !pred(note{Val: 1}) || !memoPred("", false) {
		t.Fatal("merge keeps an unkeyed entry or memo back")
	}
}

// mirrorSink ships every record to a standby's applier, as a sync
// replication pair does, until cut.
type mirrorSink struct {
	a   *tuplespace.Applier
	cut bool
}

func (s *mirrorSink) Append(payload []byte) error {
	if s.cut {
		return nil
	}
	return s.a.Apply(payload)
}

// TestMigrationRearmsAcrossSourceFailover: the source stops shipping to
// its standby right after the fork, mints one write the standby never
// sees, evicts part of the range and dies with a transaction holding the
// rest. Source then names the standby, which mints a write of its own
// under the dead source's last id. Drain fences, re-arms on the standby
// and sweeps: every entry of the range ends on the destination exactly
// once — the already-evicted ones are not duplicated, the held ones
// arrive, and the standby's new write is not mistaken for the unshipped
// one.
func TestMigrationRearmsAcrossSourceFailover(t *testing.T) {
	clk := vclock.NewReal()
	standby, standbyTap := newTappedSpace(t, clk)
	ship := &mirrorSink{a: tuplespace.NewApplier(standby)}
	primary, primaryTap := tuplespace.New(clk), NewTap(ship)
	if err := primary.AttachJournal(tuplespace.NewJournalSink(primaryTap)); err != nil {
		t.Fatal(err)
	}
	write := func(s *tuplespace.Space, key string) {
		t.Helper()
		if _, err := s.Write(kv{Key: key}, nil, tuplespace.Forever); err != nil {
			t.Fatal(err)
		}
	}
	const moving, staying, held = 20, 10, 5
	for i := 0; i < moving; i++ {
		write(primary, fmt.Sprintf("m-%d", i))
	}
	for i := 0; i < staying; i++ {
		write(primary, fmt.Sprintf("s-%d", i))
	}
	tx := primary.Begin(time.Minute)
	for i := 0; i < held; i++ {
		if _, err := primary.Read(kv{Key: fmt.Sprintf("m-%d", i)}, tx, time.Second); err != nil {
			t.Fatal(err)
		}
	}

	serving, servingTap := primary, primaryTap
	dst := tuplespace.New(clk)
	m := &Migration{
		Clock:  clk,
		Source: func() (*tuplespace.Space, *Tap) { return serving, servingTap },
		Dst:    tuplespace.NewApplier(dst),
		Pred:   movesTo,
	}
	if n, retries, err := m.Fork(); err != nil || n != moving || retries != 0 {
		t.Fatalf("fork: n=%d retries=%d err=%v", n, retries, err)
	}
	ship.cut = true
	write(primary, "m-unshipped")
	if n, err := m.SettleUntilClear(10 * time.Millisecond); !errors.Is(err, ErrSettleTimeout) || n != moving-held+1 {
		t.Fatalf("settle: evicted %d, err %v; want %d evicted and a timeout on the held entries", n, err, moving-held+1)
	}

	primary.Close()
	serving, servingTap = standby, standbyTap
	write(standby, "m-new")
	if _, err := m.Drain(0); err != nil {
		t.Fatalf("drain after re-arm: %v", err)
	}

	for i := 0; i < moving; i++ {
		if got := countKV(t, dst, kv{Key: fmt.Sprintf("m-%d", i)}); got != 1 {
			t.Fatalf("m-%d count on destination = %d, want 1", i, got)
		}
	}
	for _, key := range []string{"m-unshipped", "m-new"} {
		if got := countKV(t, dst, kv{Key: key}); got != 1 {
			t.Fatalf("%s count on destination = %d, want 1", key, got)
		}
	}
	if got := countKV(t, dst, kv{}); got != moving+2 {
		t.Fatalf("destination holds %d entries, want %d", got, moving+2)
	}
	if got := countKV(t, standby, kv{}); got != staying {
		t.Fatalf("standby holds %d entries, want the %d staying ones", got, staying)
	}
}
