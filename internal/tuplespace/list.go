package tuplespace

import (
	"math"
	"time"
	"unsafe"
)

// An entry is listed in its type's list, in write order, and in one bucket
// of each of its type's field indexes. Lookups range over one of them and
// return at their first match, so none can be rewritten in passing.
// Removal is therefore one function, removeLocked, whatever took the entry
// out (take, commit, abort, lease cancel, expiry, eviction, a write the
// journal refused): it marks the entry and counts it dead on every list.
// The pointers leave later, at the operation boundary (unlock), and never
// under a range over the list they leave.

// entryList is one ordered list of stored entries.
type entryList struct {
	items  []*storedEntry
	dead   int32 // removed entries still in items
	queued bool  // on Space.slack, awaiting compaction at unlock
}

// typeStore holds the residents of one entry type.
type typeStore struct {
	all entryList
	// indexes are the type's field indexes: the `space:"index"` key's
	// first, from the type's first write, then one per field a lookup
	// asked for (see listLocked).
	indexes []*fieldIndex
}

// fieldIndex buckets a type's entries by the value of one string, int or
// uint field. Between operations it holds no bucket without a live entry,
// so it is as large as the set of live values. Buckets are values: a
// workload of write-take pairs on distinct keys makes and drops one per
// pair, and a population of distinct values has one per entry. A dropped
// bucket's array goes on spare, cleared, and the index's next new bucket
// takes it, so that workload allocates no array per pair. With no spare
// array at hand — a bag that fills past spareMax keys before it drains —
// a new bucket's array is its first entry's slot, so a keyed write
// allocates none either way. A bucket that outgrows the slot moves to the
// heap; a slot-backed bucket, when dropped, is not kept on spare, where it
// would pin its dead entry.
type fieldIndex struct {
	field   int     // struct field number
	kind    cmpKind // cmpString, cmpInt or cmpUint
	buckets map[fieldKey]entryList
	spare   [][]*storedEntry
}

// spareMax bounds an index's spare arrays, in number and in capacity: the
// arrays worth keeping are those of the small buckets that come and go,
// and 16 of 16 slots hold at most 2 KiB.
const spareMax = 16

// fieldKey is one value of an indexed field: a string field's in str, an
// int or uint field's bits in bits. A comparer holds its value in one.
type fieldKey struct {
	str  string
	bits uint64
}

// indexMin is the fewest live entries a type holds before a lookup builds
// an index on a field other than its key. An index answers a lookup in
// about 1 µs at any size, where a scan costs about 11 ns per candidate it
// passes (10 µs to the middle of 1,024 entries); it costs each entry about
// 100 bytes and each write+take about 0.5 µs (DESIGN.md §16). At indexMin
// one lookup saves what about eighteen writes pay, so the index pays
// wherever the field is looked up once per eighteen writes or more often;
// in a smaller type the saving shrinks and the type scans. The value is a
// policy, not a measured optimum: no benchmark workload looks up a type
// this small by a non-key field.
const indexMin = 1024

// indexable reports whether a field of kind k can be indexed: two values
// match exactly when their fieldKeys are equal. Floats fail that (NaN
// matches nothing, −0 matches +0 under other bits), and so do byte slices
// and the deep kinds; a bool could be indexed, but a template can fix it
// only to true (false is the wildcard), so its index would halve a scan at
// best.
func indexable(k cmpKind) bool {
	return k == cmpString || k == cmpInt || k == cmpUint
}

func (ix *fieldIndex) keyOf(se *storedEntry) fieldKey {
	f := se.value().Field(ix.field)
	switch ix.kind {
	case cmpString:
		return fieldKey{str: f.String()}
	case cmpInt:
		return fieldKey{bits: uint64(f.Int())}
	}
	return fieldKey{bits: f.Uint()}
}

func (ix *fieldIndex) add(se *storedEntry) {
	k := ix.keyOf(se)
	b, ok := ix.buckets[k]
	if !ok {
		if n := len(ix.spare); n > 0 {
			b.items, ix.spare = ix.spare[n-1], ix.spare[:n-1]
		} else if se.slot == nil {
			b.items = unsafe.Slice(&se.slot, 1)[:0]
		}
	}
	b.items = append(b.items, se)
	ix.buckets[k] = b
}

// inSlot reports whether items is an entry's slot (see storedEntry.slot):
// then the one entry it can hold is that entry.
func inSlot(items []*storedEntry) bool {
	if cap(items) != 1 {
		return false
	}
	first := &items[:1][0]
	return *first != nil && first == &(*first).slot
}

// drop removes key's bucket, whose items are all dead, and keeps a heap
// array for a new bucket, cleared.
func (ix *fieldIndex) drop(key fieldKey, items []*storedEntry) {
	delete(ix.buckets, key)
	slot := inSlot(items)
	clear(items)
	if c := cap(items); !slot && c > 0 && c <= spareMax && len(ix.spare) < spareMax {
		ix.spare = append(ix.spare, items[:0])
	}
}

// addIndex indexes st's live entries by field, in write order, and keeps
// the index from then on.
func (st *typeStore) addIndex(field int, kind cmpKind) *fieldIndex {
	ix := &fieldIndex{field: field, kind: kind, buckets: make(map[fieldKey]entryList)}
	for _, se := range st.all.items {
		if !se.removed {
			ix.add(se)
		}
	}
	st.indexes = append(st.indexes, ix)
	return ix
}

// listRef names one list of a type: its whole list, or the bucket of key
// in index ix. A bucket is a map value, so a list is read with get,
// changed, and put back.
type listRef struct {
	st  *typeStore
	ix  *fieldIndex // nil for the type's list
	key fieldKey
}

func (r listRef) get() entryList {
	switch {
	case r.st == nil: // nothing of the type was ever written
		return entryList{}
	case r.ix != nil:
		return r.ix.buckets[r.key]
	}
	return r.st.all
}

func (r listRef) put(l entryList) {
	if r.ix != nil {
		r.ix.buckets[r.key] = l
	} else {
		r.st.all = l
	}
}

// reapMin is the fewest dead entries worth a pass over a list that still
// has live ones.
const reapMin = 64

// due reports whether l is to be compacted: its dead outnumber its live
// and are enough to be worth the pass — one pass per len/2 removals, so
// O(1) amortised — or nothing in it is live at all.
func (l *entryList) due() bool {
	dead, live := int(l.dead), len(l.items)-int(l.dead)
	return live == 0 || (dead >= reapMin && dead > live)
}

func (se *storedEntry) expired(now time.Time) bool {
	return se.expiry != 0 && now.UnixNano() > se.expiry
}

// expiryAfter returns when a lease of ttl > 0 granted at now ends, in Unix
// nanoseconds: the instant a time.Time would hold, without its monotonic
// reading, so a step of the wall clock moves it. A clock must read within
// the years 1678–2262, as UnixNano requires; an end past 2262 is held as
// the last nanosecond there is.
func expiryAfter(now time.Time, ttl time.Duration) int64 {
	at := now.UnixNano()
	if end := at + int64(ttl); end > at {
		return end
	}
	return math.MaxInt64
}

// expiryTime is an expiry as a time: the zero Time for 0, forever.
func expiryTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// insertLocked lists a newly written entry.
func (s *Space) insertLocked(se *storedEntry) {
	ti := se.ti
	st := s.types[ti.name]
	if st == nil {
		st = &typeStore{}
		if ti.keyField >= 0 {
			st.addIndex(ti.keyField, cmpString)
		}
		s.types[ti.name] = st
	}
	st.all.items = append(st.all.items, se)
	for _, ix := range st.indexes {
		ix.add(se)
	}
	s.bySeq[se.id] = se
}

// removeLocked is the one way an entry leaves the space; removing one
// already gone (a lease cancelled under a transaction that then resolves)
// does nothing. It is safe under a range over any list: nothing moves
// until unlock.
func (s *Space) removeLocked(se *storedEntry) {
	if se.removed {
		return
	}
	se.removed = true
	delete(s.bySeq, se.id)
	st := s.types[se.ti.name]
	s.deadLocked(listRef{st: st})
	for _, ix := range st.indexes {
		s.deadLocked(listRef{st: st, ix: ix, key: ix.keyOf(se)})
	}
}

// deadLocked counts one more dead entry in r's list, and queues the list
// for unlock if that makes it due.
func (s *Space) deadLocked(r listRef) {
	l := r.get()
	l.dead++
	s.dead++
	if !l.queued && l.due() {
		l.queued = true
		s.slack = append(s.slack, r)
	}
	r.put(l)
}

// unlock ends an operation: lists that fell due during it are compacted in
// place, order kept, a bucket left with nothing live is dropped from its
// index, the mutex released, and the notifications the operation raised
// delivered — the only place any leaves the store: first what an expiry
// at lock re-published, then the operation's own.
func (s *Space) unlock() {
	for i, r := range s.slack {
		s.slack[i] = listRef{}
		l := r.get()
		kept := l.items[:0]
		for _, se := range l.items {
			if !se.removed {
				kept = append(kept, se)
			}
		}
		s.dead -= int(l.dead)
		if r.ix != nil && len(kept) == 0 {
			r.ix.drop(r.key, l.items)
			continue
		}
		clear(l.items[len(kept):])
		r.put(entryList{items: kept})
	}
	s.slack = s.slack[:0]
	fire := s.fire
	s.fire = nil
	s.mu.Unlock()
	for _, n := range fire {
		n.fn(n.ev)
	}
}

// listLocked names the list a lookup with matcher m ranges over: the
// bucket of the first index whose field m fixes, else the type's whole
// list. When m fixes no indexed field but does fix an indexable one, and
// the type holds indexMin live entries, it first indexes that field — so
// the fields indexed are the ones lookups ask for, and a store that is
// never looked up (a standby) builds nothing but its key index.
func (s *Space) listLocked(ti *typeInfo, m matcher) listRef {
	st := s.types[ti.name]
	if st == nil {
		return listRef{}
	}
	for _, ix := range st.indexes {
		for i := range m {
			if c := &m[i]; c.field == ix.field {
				return listRef{st: st, ix: ix, key: c.fieldKey}
			}
		}
	}
	if len(st.all.items)-int(st.all.dead) >= indexMin {
		for i := range m {
			if c := &m[i]; indexable(c.kind) {
				return listRef{st: st, ix: st.addIndex(c.field, c.kind), key: c.fieldKey}
			}
		}
	}
	return listRef{st: st}
}

// nextLocked returns the index of the first entry at or after from that
// m matches and a kind operation under t may act on, or -1. Expired
// entries it passes are removed (marked: the list does not move).
func (s *Space) nextLocked(kind opKind, items []*storedEntry, from int, m matcher, t *Txn, now time.Time) int {
	for i := from; i < len(items); i++ {
		se := items[i]
		if se.removed {
			continue
		}
		if se.expired(now) {
			s.removeLocked(se)
			s.stats.Expired++
			continue
		}
		if !s.visibleLocked(se, t) {
			continue
		}
		if kind == opTake && !s.takeableLocked(se, t) {
			continue
		}
		if m.match(se.value()) {
			return i
		}
	}
	return -1
}

// findLocked returns the first entry of r's list that nextLocked accepts,
// or nil. A dead run at the head of the list is dropped for good first, so
// a bag drained from the head passes each dead entry once, not once per
// take.
func (s *Space) findLocked(kind opKind, r listRef, m matcher, t *Txn) *storedEntry {
	l := r.get()
	n := 0
	for n < len(l.items) && l.items[n].removed {
		l.items[n] = nil
		n++
	}
	if n > 0 {
		l.items, l.dead = l.items[n:], l.dead-int32(n)
		s.dead -= n
		r.put(l)
	}
	if i := s.nextLocked(kind, l.items, 0, m, t, s.clock.Now()); i >= 0 {
		return l.items[i]
	}
	return nil
}

func (s *Space) visibleLocked(se *storedEntry, t *Txn) bool {
	if se.takenUnder != 0 || se.staged {
		return false
	}
	if se.writtenUnder != 0 {
		return t != nil && t.id == se.writtenUnder
	}
	return true
}

// takeableLocked reports whether a take under t (nil for none) may have
// se: no transaction but t holds a read lock on it.
func (s *Space) takeableLocked(se *storedEntry, t *Txn) bool {
	if se.readers != 1 || t == nil {
		return se.readers == 0
	}
	return s.readLocks[readLock{se, t.id}]
}
