package tuplespace

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"gospaces/internal/enc"
	"gospaces/internal/vclock"
)

func init() {
	enc.RegisterType(paddedDoc{})
	enc.RegisterType(scanDoc{})
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
// no list holds more dead than max(reapMin, live), every bucket lists its
// entries in the order its type list does, the buckets of each of a type's
// indexes partition its live entries with every entry under its own value
// and no bucket empty, and the space-wide counters are the sums. Lists are
// in insertion order, which is id order on a space that mirrored nothing;
// a standby receives a transaction's write at commit, under the id it got
// at write time, so its lists follow commit order instead.
func checkLists(t testing.TB, s *Space) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slack) != 0 {
		t.Fatalf("%d lists still queued for compaction between operations", len(s.slack))
	}
	live, dead := 0, 0
	// pos is each entry's position in the type list being checked; a dead
	// entry may already have left it while a bucket still holds it.
	var pos map[*storedEntry]int
	check := func(what func() string, l *entryList) (alive int) {
		n, last := 0, -1
		for i, se := range l.items {
			if se.removed {
				n++
			}
			if s.mirrored == 0 && i > 0 && se.id <= l.items[i-1].id {
				t.Fatalf("%s: entry %d listed after entry %d", what(), se.id, l.items[i-1].id)
			}
			if p, ok := pos[se]; ok {
				if p <= last {
					t.Fatalf("%s: entry %d listed out of its type list's order", what(), se.id)
				}
				last = p
			}
		}
		alive = len(l.items) - n
		if n != int(l.dead) || l.queued {
			t.Fatalf("%s: dead counter %d (queued %v), %d removed of %d listed", what(), l.dead, l.queued, n, len(l.items))
		}
		if n > reapMin && n > alive {
			t.Fatalf("%s: %d dead beside %d live", what(), n, alive)
		}
		dead += n
		return alive
	}
	for name, st := range s.types {
		pos = nil
		inType := check(func() string { return name }, &st.all)
		live += inType
		pos = make(map[*storedEntry]int, len(st.all.items))
		for i, se := range st.all.items {
			pos[se] = i
		}
		// An entry is in a bucket once at most (the bucket is in its
		// type list's order) and in one bucket at most (its own
		// value's), so as many live entries in the buckets as in the
		// type list are all of them: the buckets partition the type.
		for _, ix := range st.indexes {
			inBuckets := 0
			for key, b := range ix.buckets {
				what := func() string { return fmt.Sprintf("%s[field %d = %+v]", name, ix.field, key) }
				n := check(what, &b)
				if n == 0 {
					t.Fatalf("%s: an empty bucket is still in the index", what())
				}
				inBuckets += n
				for _, se := range b.items {
					if k := ix.keyOf(se); k != key {
						t.Fatalf("%s holds an entry whose value is %+v", what(), k)
					}
				}
			}
			if inBuckets != inType {
				t.Fatalf("%s: %d live entries in the buckets of field %d, %d in the type list", name, inBuckets, ix.field, inType)
			}
		}
	}
	if live != len(s.bySeq) || dead != s.dead {
		t.Fatalf("space counts live %d dead %d, lists hold %d and %d", len(s.bySeq), s.dead, live, dead)
	}
}

// listLens returns how many pointers the type list of e's type and the
// bucket of key in its key index hold, dead ones included.
func listLens(t testing.TB, s *Space, e Entry, key string) (all, bucket int) {
	t.Helper()
	ti, _, err := infoFor(e)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.types[ti.name]
	if st == nil {
		return 0, 0
	}
	for _, ix := range st.indexes {
		if ix.field == ti.keyField {
			bucket = len(ix.buckets[fieldKey{str: key}].items)
		}
	}
	return len(st.all.items), bucket
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

// appliers feeds a primary's journal straight into one or more appliers,
// as a replica ship and a migration's tap do.
type appliers []*Applier

func (as appliers) Append(p []byte) error {
	for _, a := range as {
		if err := a.Apply(p); err != nil {
			return err
		}
	}
	return nil
}

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
	if err := primary.AttachJournal(NewJournalSink(appliers{a})); err != nil {
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

// scanDoc is paddedDoc with a float where N is: no index covers a float,
// so a lookup that fixes only G scans the whole type.
type scanDoc struct {
	Key string `space:"index"`
	G   float64
	Pad []byte
}

// Allocation pins for TestLookupAllocations, each the count measured with
// go1.24 on amd64 (with and without -race) plus the spare two that absorb
// runtime differences between Go releases, as on maxPairAllocs.
const (
	maxScanTakeAllocs    = 6 + 2 // a take that scans 20,000 residents, and its write-back
	maxScanReadAllocs    = 3 + 2 // a read that scans them
	maxIndexedTakeAllocs = 6 + 2 // a take answered from an index, and its write-back
	maxIndexedReadAllocs = 3 + 2 // a read answered from one
	maxKeyedPairAllocs   = 7 + 2 // a keyed write+take pair
)

// TestLookupAllocations pins what a lookup on a large type costs. A take
// that scans 20,000 residents for a float field and the write that puts
// the entry back allocate a fixed handful of times, however many
// candidates the scan passes (the reflective matcher boxed two values per
// field per candidate: about 9,400), and a scanning read only its copy. A
// take by an int field among as many residents — answered from the index
// that field's first lookup built — costs its write-back no bucket array:
// the new buckets take the arrays the take's emptied ones left on their
// indexes' spare lists; its read, only the copy. A keyed write+take pair
// costs no more than it must: the entry's lease is a value naming the
// entry, and the key's bucket reuses the array the last pair's left.
func TestLookupAllocations(t *testing.T) {
	const residents = 20_000
	pin := func(what string, max float64, f func()) {
		t.Helper()
		n := testing.AllocsPerRun(200, f)
		t.Logf("%s: %.0f allocations", what, n)
		if n > max {
			t.Fatalf("%s allocates %.0f times, want at most %.0f", what, n, max)
		}
	}
	rng := rand.New(rand.NewSource(1))

	scan := newRealSpace()
	for i := 1; i <= residents; i++ {
		mustWrite(t, scan, scanDoc{Key: fmt.Sprintf("r%d", i), G: float64(i) + 0.5, Pad: make([]byte, 64)})
	}
	pin("a take that scans the type and its write-back", maxScanTakeAllocs, func() {
		e, err := scan.TakeIfExists(scanDoc{G: float64(1+rng.Intn(residents)) + 0.5}, nil)
		if err != nil || e == nil {
			t.Fatalf("scanning take: %v, %v", e, err)
		}
		if _, err := scan.Write(e, nil, Forever); err != nil {
			t.Fatal(err)
		}
	})
	pin("a read that scans the type", maxScanReadAllocs, func() {
		if e, err := scan.ReadIfExists(scanDoc{G: float64(1+rng.Intn(residents)) + 0.5}, nil); err != nil || e == nil {
			t.Fatalf("scanning read: %v, %v", e, err)
		}
	})
	wantIndexes(t, scan, scanDoc{}, "a type looked up by a float only", "Key")
	checkLists(t, scan)

	s := newRealSpace()
	for i := 1; i <= residents; i++ {
		mustWrite(t, s, paddedDoc{Key: fmt.Sprintf("r%d", i), N: i, Pad: make([]byte, 64)})
	}
	pin("a take by an indexed non-key field and its write-back", maxIndexedTakeAllocs, func() {
		e, err := s.TakeIfExists(paddedDoc{N: 1 + rng.Intn(residents)}, nil)
		if err != nil || e == nil {
			t.Fatalf("indexed take: %v, %v", e, err)
		}
		if _, err := s.Write(e, nil, Forever); err != nil {
			t.Fatal(err)
		}
	})
	pin("a read by an indexed non-key field", maxIndexedReadAllocs, func() {
		if e, err := s.ReadIfExists(paddedDoc{N: 1 + rng.Intn(residents)}, nil); err != nil || e == nil {
			t.Fatalf("indexed read: %v, %v", e, err)
		}
	})
	wantIndexes(t, s, paddedDoc{}, "a type looked up by N", "Key", "N")
	pad := make([]byte, 64)
	pin("a keyed write+take pair", maxKeyedPairAllocs, func() {
		if _, err := s.Write(paddedDoc{Key: "pair", N: 1, Pad: pad}, nil, Forever); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Take(paddedDoc{Key: "pair"}, nil, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	checkLists(t, s)
}

// maxStoredEntryBytes bounds a resident's own record, storedEntry: 64
// bytes, the 64-byte size class (88 while it held its value as a
// reflect.Value and its read locks in a map of its own; 112 while the
// expiry was a time.Time and each entry held its lease handle; the inline
// bucket slot came in with both gone). It is full: one more word and each
// resident costs 16 bytes more.
const maxStoredEntryBytes = 64

// TestStoredEntrySize pins storedEntry to its size class.
func TestStoredEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(storedEntry{}); n > maxStoredEntryBytes {
		t.Fatalf("storedEntry is %d bytes, want at most %d", n, maxStoredEntryBytes)
	}
}

// TestBagWriteAllocatesNoBucketArray: a keyed write into a store that
// holds 128 live keys allocates exactly what it does into one that holds
// one. An index keeps at most spareMax emptied arrays, so a bag that fills
// past that many keys before it drains opens most of its buckets with no
// spare at hand; each takes its entry's inline slot as its array instead
// of allocating one (8 B, once per write past the sixteenth, before), and
// none of those arrays is kept once its bucket empties.
func TestBagWriteAllocatesNoBucketArray(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	perWrite := func(live int) float64 {
		s := newRealSpace()
		docs := make([]Entry, live)
		for i := range docs {
			docs[i] = paddedDoc{Key: fmt.Sprintf("k%d", i), N: i + 1, Pad: make([]byte, 8)}
		}
		var mallocs uint64
		const rounds = 10
		for r := 0; r <= rounds; r++ { // round 0 sizes the maps and lists
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, d := range docs {
				if _, err := s.Write(d, nil, Forever); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if r > 0 {
				mallocs += after.Mallocs - before.Mallocs
			}
			for _, d := range docs {
				if e, err := s.TakeIfExists(paddedDoc{Key: d.(paddedDoc).Key}, nil); err != nil || e == nil {
					t.Fatalf("take %v: %v, %v", d, e, err)
				}
			}
		}
		// Every bucket opened on a slot, so no array was kept on spare,
		// where it would pin its dead entry.
		for _, st := range s.types {
			for _, ix := range st.indexes {
				if len(ix.spare) != 0 {
					t.Fatalf("%d emptied slot arrays kept on spare", len(ix.spare))
				}
			}
		}
		return float64(mallocs) / float64(rounds*live)
	}
	one, bag := perWrite(1), perWrite(128)
	t.Logf("a keyed write allocates %.3f times beside 1 live key, %.3f beside 128", one, bag)
	if bag != one {
		t.Fatalf("a keyed write into a bag of 128 live keys allocates %.3f times, want %.3f as beside 1", bag, one)
	}
}
