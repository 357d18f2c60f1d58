package tuplespace

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

func init() {
	enc.RegisterType(paddedDoc{})
}

// paddedDoc is an indexed entry heavy enough that a leaked pointer shows
// in the heap: the lists hold 8 bytes per entry, the entry pins 1 KiB.
type paddedDoc struct {
	Key string `space:"index"`
	N   int
	Pad []byte
}

func padded(key string, n int) paddedDoc {
	return paddedDoc{Key: key, N: n, Pad: make([]byte, 1024)}
}

// checkLists asserts what must hold of every list of s between
// operations: the dead counters are exact, nothing waits for compaction,
// no list holds more dead than max(reapMin, live), the key map holds no
// empty bucket, each live entry of an indexed type is in its key's bucket,
// and the space-wide counters are the sums.
func checkLists(t testing.TB, s *Space) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slack) != 0 {
		t.Fatalf("%d lists still queued for compaction between operations", len(s.slack))
	}
	live, dead := 0, 0
	check := func(what string, l *entryList) (alive int) {
		n := 0
		for _, se := range l.items {
			if se.removed {
				n++
			}
		}
		alive = len(l.items) - n
		if n != int(l.dead) || l.queued {
			t.Fatalf("%s: dead counter %d (queued %v), %d removed of %d listed", what, l.dead, l.queued, n, len(l.items))
		}
		if n > reapMin && n > alive {
			t.Fatalf("%s: %d dead beside %d live", what, n, alive)
		}
		dead += n
		return alive
	}
	for name, st := range s.types {
		live += check(name, &st.all)
		inBuckets := 0
		for key, b := range st.byKey {
			n := check(name+"["+key+"]", &b)
			if n == 0 {
				t.Fatalf("%s[%s]: an empty bucket is still in the map", name, key)
			}
			inBuckets += n
			for _, se := range b.items {
				if k := entryKey(se); k != key {
					t.Fatalf("%s[%s] holds an entry keyed %q", name, key, k)
				}
			}
		}
		if st.byKey != nil && inBuckets != len(st.all.items)-int(st.all.dead) {
			t.Fatalf("%s: %d live entries in buckets, %d in the type list", name, inBuckets, len(st.all.items)-int(st.all.dead))
		}
	}
	if live != len(s.bySeq) || dead != s.dead {
		t.Fatalf("space counts live %d dead %d, lists hold %d and %d", len(s.bySeq), s.dead, live, dead)
	}
}

// listLens returns how many pointers the type list of e's type and the
// bucket of key hold, dead ones included.
func listLens(t testing.TB, s *Space, e Entry, key string) (all, bucket int) {
	t.Helper()
	name, err := TypeName(e)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.types[name]
	if st == nil {
		return 0, 0
	}
	return len(st.all.items), len(st.byKey[key].items)
}

// TestUnkeyedTakesDoNotGrowTheKeyBucket is the mirror image of
// TestKeyedTakesDoNotGrowTheTypeList: the master writes keyed entries and
// the worker takes them with a template that leaves the key open. Every
// way of removing such an entry — take, lease cancel, token cancel,
// transactional take committed, transactional write aborted, expiry — has
// to leave both the bucket and the type list no longer than the reap rule
// allows, with the residents still in write order.
func TestUnkeyedTakesDoNotGrowTheKeyBucket(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	s := New(clk)
	const residents = 3
	bounded := func(after string) {
		t.Helper()
		checkLists(t, s)
		if all, bucket := listLens(t, s, keyedDoc{}, "k"); all > reapMin+residents+1 || bucket > reapMin+residents+1 {
			t.Fatalf("after %s the type list holds %d pointers and the bucket %d, for %d live entries", after, all, bucket, residents)
		}
	}
	clk.Run(func() {
		for i := 1; i <= residents; i++ {
			mustWrite(t, s, keyedDoc{Key: "k", Val: -i})
		}
		for i := 1; i <= 10_000; i++ {
			mustWrite(t, s, keyedDoc{Key: "k", Val: i})
			if got, err := s.TakeIfExists(keyedDoc{Val: i}, nil); err != nil || got.(keyedDoc).Key != "k" {
				t.Fatalf("take %d: %+v, %v", i, got, err)
			}
			bounded("an unkeyed take")
		}
		for i := 1; i <= 4*reapMin; i++ {
			l, err := s.Write(keyedDoc{Key: "k", Val: i}, nil, Forever)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				err = l.Cancel()
			} else {
				err = l.CancelTok(tok("canceller", uint64(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			bounded("a lease cancel")
		}
		for i := 1; i <= 4*reapMin; i++ {
			mustWrite(t, s, keyedDoc{Key: "k", Val: i})
			tx := s.Begin(time.Minute)
			if _, err := s.TakeIfExists(keyedDoc{Val: i}, tx); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			bounded("a committed take")
		}
		for i := 1; i <= 4*reapMin; i++ {
			tx := s.Begin(time.Minute)
			if _, err := s.Write(keyedDoc{Key: "k", Val: i}, tx, Forever); err != nil {
				t.Fatal(err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			bounded("an aborted write")
		}
		for i := 1; i <= 4*reapMin; i++ {
			if _, err := s.Write(keyedDoc{Key: "k", Val: i}, nil, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			clk.Sleep(2 * time.Millisecond)
			if _, err := s.ReadIfExists(keyedDoc{Val: i}, nil); !errors.Is(err, ErrNoMatch) {
				t.Fatalf("expired entry %d read: %v", i, err)
			}
			bounded("an expiry")
		}
		for want := 1; want <= residents; want++ {
			got, err := s.TakeIfExists(keyedDoc{Key: "k"}, nil)
			if err != nil || got.(keyedDoc).Val != -want {
				t.Fatalf("resident %d: got %+v, %v", want, got, err)
			}
		}
		bounded("the residents left")
	})
}

// applySink feeds a primary's journal straight into a standby's applier,
// as the replica ship does.
type applySink struct{ a *Applier }

func (k applySink) Append(p []byte) error { return k.a.Apply(p) }

// TestStandbyListsStayBounded: a standby is written and cancelled through
// Applier.Apply and never looked up, so nothing a scan does in passing can
// be what keeps its lists short. Five thousand write+take pairs on the
// primary, each entry pinning 1 KiB, must leave the standby's lists and
// heap where they started (before removeLocked: 5,000 pointers in each
// list of the standby, 5,000 in the primary's bucket, 11 MB pinned); so must a Reset, token cancels, aborted
// transactional writes and writes the journal refused.
func TestStandbyListsStayBounded(t *testing.T) {
	clk := vclock.NewReal()
	primary, standby := New(clk), New(clk)
	a := NewApplier(standby)
	if err := primary.AttachJournal(NewJournalSink(applySink{a})); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	bounded := func(after string, s *Space, live int) {
		t.Helper()
		checkLists(t, s)
		if all, bucket := listLens(t, s, paddedDoc{}, "k"); all > reapMin+live || bucket > reapMin+live {
			t.Fatalf("after %s the type list holds %d pointers and the bucket %d, for %d live entries", after, all, bucket, live)
		}
		if st := s.Stats(); st.EntriesLive != live || st.Dead > 2*reapMin {
			t.Fatalf("after %s Stats reports %d live, %d dead; want %d live", after, st.EntriesLive, st.Dead, live)
		}
	}
	before := heap()
	const pairs = 5_000
	for i := 1; i <= pairs; i++ {
		if _, err := primary.Write(padded("k", i), nil, Forever); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.TakeIfExists(paddedDoc{}, nil); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
	}
	bounded("the pairs (primary)", primary, 0)
	bounded("the pairs (standby)", standby, 0)
	if grown := int64(heap()) - int64(before); grown > 2<<20 {
		t.Fatalf("%d pairs grew the heap by %d KiB: removed entries are still pinned", pairs, grown>>10)
	}

	for i := 1; i <= 4*reapMin; i++ {
		if _, err := primary.Write(padded("k", i), nil, Forever); err != nil {
			t.Fatal(err)
		}
	}
	bounded("a backlog", standby, 4*reapMin)
	a.Reset()
	bounded("Applier.Reset", standby, 0)

	// The rest needs no replication: each is a way of removing an entry
	// that no lookup follows.
	s := New(clk)
	sink := &scriptedSink{}
	if err := s.AttachJournal(NewJournalSink(sink)); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, padded("k", -1)) // a resident, so the bucket is never simply dropped
	for i := 1; i <= 4*reapMin; i++ {
		l, err := s.Write(padded("k", i), nil, Forever)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.CancelTok(tok("standby", uint64(i))); err != nil {
			t.Fatal(err)
		}
		bounded("CancelTok", s, 1)
	}
	for i := 1; i <= 4*reapMin; i++ {
		tx := s.Begin(time.Minute)
		if _, err := s.Write(padded("k", i), tx, Forever); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		bounded("an aborted write", s, 1)
	}
	calls, _ := sink.stats()
	sink.mu.Lock()
	sink.failAt = calls + 1 // every append from here on fails
	sink.mu.Unlock()
	for i := 1; i <= 4*reapMin; i++ {
		if _, err := s.Write(padded("k", i), nil, Forever); !errors.Is(err, errDisk) {
			t.Fatalf("write %d past the disk failure: %v", i, err)
		}
		bounded("a refused write", s, 1)
	}
}

// TestLookupAllocations gates what the compiled matcher and the read-only
// scan bought: a take that scans 20,000 residents for a non-key field and
// the write that puts the entry back cost a fixed handful of allocations
// (the reflective matcher boxed two values per field per candidate: about
// 9,400), and a keyed write+take pair no more than it did.
func TestLookupAllocations(t *testing.T) {
	s := newRealSpace()
	const residents = 20_000
	for i := 1; i <= residents; i++ {
		mustWrite(t, s, paddedDoc{Key: fmt.Sprintf("r%d", i), N: i, Pad: make([]byte, 64)})
	}
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(200, func() {
		e, err := s.TakeIfExists(paddedDoc{N: 1 + rng.Intn(residents)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Write(e, nil, Forever); err != nil {
			t.Fatal(err)
		}
	}); n > 20 {
		t.Fatalf("a scanning take and its write-back allocate %.0f times, want at most 20", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.ReadIfExists(paddedDoc{N: 1 + rng.Intn(residents)}, nil); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Fatalf("a scanning read allocates %.0f times, want at most 8", n)
	}
	pad := make([]byte, 64)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := s.Write(paddedDoc{Key: "pair", N: 1, Pad: pad}, nil, Forever); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Take(paddedDoc{Key: "pair"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	}); n > 12 {
		t.Fatalf("a keyed write+take pair allocates %.0f times, want at most 12", n)
	}
	checkLists(t, s)
}
