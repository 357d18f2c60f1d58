package tuplespace

import "time"

// An entry is listed twice: in its type's list, in write order, and — for
// types with an index field — in the bucket of its key. Lookups range over
// one of the two and return at their first match, so neither can be
// rewritten in passing. Removal is therefore one function, removeLocked,
// whatever took the entry out (take, commit, abort, lease cancel, expiry,
// eviction, a write the journal refused): it marks the entry and counts it
// dead on both lists. The pointers leave later, at the operation boundary
// (unlock), and never under a range over the list they leave.

// entryList is one ordered list of stored entries.
type entryList struct {
	items  []*storedEntry
	dead   int32 // removed entries still in items
	queued bool  // on Space.slack, awaiting compaction at unlock
}

// typeStore holds the residents of one entry type.
type typeStore struct {
	all entryList
	// byKey is the index: index-field value → bucket, nil for a type
	// without an index field. It holds no bucket without a live entry, so
	// it is as large as the set of live keys. Buckets are values: a
	// workload of write-take pairs on distinct keys makes and drops one per
	// pair, and a population of distinct keys has one per entry.
	byKey map[string]entryList
}

// listRef names one of a type's two kinds of list. A bucket is a map value,
// so a list is read with get, changed, and put back.
type listRef struct {
	st     *typeStore
	key    string
	bucket bool // the bucket of key (which may be ""), not the type's list
}

func (r listRef) get() entryList {
	switch {
	case r.st == nil: // nothing of the type was ever written
		return entryList{}
	case r.bucket:
		return r.st.byKey[r.key]
	}
	return r.st.all
}

func (r listRef) put(l entryList) {
	if r.bucket {
		r.st.byKey[r.key] = l
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
	return !se.expiry.IsZero() && now.After(se.expiry)
}

// insertLocked lists a newly written entry.
func (s *Space) insertLocked(se *storedEntry) {
	ti := se.ti
	st := s.types[ti.name]
	if st == nil {
		st = &typeStore{}
		if ti.keyField >= 0 {
			st.byKey = make(map[string]entryList)
		}
		s.types[ti.name] = st
	}
	st.all.items = append(st.all.items, se)
	if ti.keyField >= 0 {
		key := entryKey(se)
		r := listRef{st: st, key: key, bucket: true}
		b := r.get()
		b.items = append(b.items, se)
		r.put(b)
	}
	s.bySeq[se.id] = se
}

// removeLocked is the one way an entry leaves the space; removing one
// already gone (a lease cancelled under a transaction that then resolves)
// does nothing. It is safe under a range over either list: nothing moves
// until unlock.
func (s *Space) removeLocked(se *storedEntry) {
	if se.removed {
		return
	}
	se.removed = true
	delete(s.bySeq, se.id)
	st := s.types[se.ti.name]
	s.deadLocked(listRef{st: st})
	if se.ti.keyField >= 0 {
		key := entryKey(se)
		s.deadLocked(listRef{st: st, key: key, bucket: true})
	}
}

// deadLocked counts one more dead entry in r's list. A bucket with nothing
// live left is dropped from the index there and then — whoever ranges over
// it holds its own slice header — and any other list that falls due is
// queued for unlock.
func (s *Space) deadLocked(r listRef) {
	l := r.get()
	l.dead++
	s.dead++
	if r.bucket && int(l.dead) == len(l.items) {
		delete(r.st.byKey, r.key)
		s.dead -= int(l.dead)
		return
	}
	if !l.queued && l.due() {
		l.queued = true
		s.slack = append(s.slack, r)
	}
	r.put(l)
}

// unlock ends an operation: lists that fell due during it are compacted in
// place, order kept, the mutex released, and what an expiry at lock
// published delivered.
func (s *Space) unlock() {
	for i, r := range s.slack {
		s.slack[i] = listRef{}
		l := r.get()
		if !l.queued {
			continue // a bucket queued, then dropped when its last live entry went
		}
		kept := l.items[:0]
		for _, se := range l.items {
			if !se.removed {
				kept = append(kept, se)
			}
		}
		clear(l.items[len(kept):])
		s.dead -= int(l.dead)
		r.put(entryList{items: kept})
	}
	s.slack = s.slack[:0]
	fire := s.fire
	s.fire = nil
	s.mu.Unlock()
	deliver(fire)
}

// listLocked names the list a lookup ranges over: the key's bucket when
// the template fixes the index field, the type's whole list otherwise.
func (s *Space) listLocked(ti *typeInfo, key string) listRef {
	return listRef{st: s.types[ti.name], key: key, bucket: key != ""}
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
		if m.match(se.val) {
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

func (s *Space) takeableLocked(se *storedEntry, t *Txn) bool {
	for id := range se.readLocks {
		if t == nil || id != t.id {
			return false
		}
	}
	return true
}
