package tuplespace

import (
	"fmt"
	"reflect"
	"sync"
	"time"
	"unsafe"

	"gospaces/internal/enc"
	"gospaces/internal/metrics"
	"gospaces/internal/vclock"
)

// Forever is the lease duration for entries that never expire.
const Forever time.Duration = 0

// Space is an in-process JavaSpace: a shared repository of typed entries
// with associative lookup, and the transactions that run in it (txn.go).
// All methods are safe for concurrent use.
type Space struct {
	clock vclock.Clock

	mu      sync.Mutex              // taken with lock, released with unlock: the operation boundary
	types   map[string]*typeStore   // entry type name → its residents
	bySeq   map[uint64]*storedEntry // entries listed and not removed, by id
	dead    int                     // removed entries a list still holds, counted once per list
	slack   []listRef               // lists due a compaction at unlock
	fire    []notification          // what the current op published, delivered at unlock
	waiters map[string][]*waiter
	notifs  map[string][]*registration
	txns    map[uint64]*txnState // live transactions (txn.go)
	txnNext time.Time            // no transaction lapses before this; zero when none can
	nextTxn uint64
	nextID  uint64 // above every id stored here
	nextReg uint64
	closed  bool
	journal *Journal
	stats   Stats

	// readLocks holds a row while a transaction holds a read lock on an
	// entry; the entry counts its rows in readers.
	readLocks map[readLock]bool

	mirrored uint64 // see Mirrored

	memos        *memoTable // token → memoized outcome (see memo.go), lazily allocated
	memoCounters *metrics.Counters
	flightSink   func(kind, detail string) // dedup-hit sink (see SetFlightSink)

	waiting int // parked waiters, maintained at park/unpark
}

// Stats counts space operations; returned by Space.Stats.
type Stats struct {
	Writes      uint64 // successful Write calls
	Reads       uint64 // successful Read/ReadIfExists calls
	Takes       uint64 // successful Take/TakeIfExists calls
	Blocked     uint64 // Read/Take calls that had to wait
	Timeouts    uint64 // Read/Take calls that timed out
	Notified    uint64 // notification events delivered
	Expired     uint64 // entries reaped after lease expiry
	TxnCommits  uint64 // transactions committed at this space
	TxnAborts   uint64 // transactions aborted at this space, lapsed ones included
	TxnExpired  uint64 // transactions aborted because their deadline passed
	EntriesLive int    // entries currently stored (including txn-held)
	Dead        int    // removed entries whose pointer a type list or index bucket still holds
	Waiting     int    // Read/Take calls currently parked waiting for a match
	TxnsLive    int    // transactions begun and not yet committed, aborted or lapsed
}

// storedEntry is one resident, 64 bytes on 64-bit platforms: the 64-byte
// size class (DESIGN §16).
type storedEntry struct {
	id     uint64
	ti     *typeInfo
	data   unsafe.Pointer // the value the space owns, as an interface's data word (see entry)
	expiry int64          // Unix nanoseconds; 0 = forever

	writtenUnder uint64 // txn holding an uncommitted write, 0 if public
	takenUnder   uint64 // txn holding a take lock, 0 if free
	// readers counts the transactions holding a read lock on the entry;
	// which ones, Space.readLocks says.
	readers int32
	removed bool
	// staged marks a migrated copy whose source can still serve the
	// original: stored and journaled here, seen by no lookup until the
	// source lets the original go (see Applier).
	staged bool
	// slot is the array of the first new index bucket the entry opens
	// when its index has no spare one (see fieldIndex.add), so a keyed
	// write allocates no bucket array of its own.
	slot *storedEntry
}

// readLock is one transaction's read lock on one entry.
type readLock struct {
	se  *storedEntry
	txn uint64
}

type opKind int

const (
	opRead opKind = iota
	opTake
)

type waiter struct {
	kind   opKind
	ti     *typeInfo
	m      matcher
	txn    *Txn
	w      vclock.Waiter
	result *storedEntry
	err    error
	tok    OpToken // non-zero for an exactly-once take: its record carries it
	shared bool    // the result is the stored value, not a copy (see lookup)
}

// New returns an empty Space on the given clock.
func New(clock vclock.Clock) *Space {
	return &Space{
		clock:     clock,
		types:     make(map[string]*typeStore),
		bySeq:     make(map[uint64]*storedEntry),
		waiters:   make(map[string][]*waiter),
		notifs:    make(map[string][]*registration),
		txns:      make(map[uint64]*txnState),
		nextID:    1,
		nextReg:   1,
		readLocks: make(map[readLock]bool),
	}
}

// Close shuts the space down: every blocked operation is woken with
// ErrClosed and subsequent operations fail.
func (s *Space) Close() {
	s.lock()
	if s.closed {
		s.unlock()
		return
	}
	s.closed = true
	var all []*waiter
	for _, ws := range s.waiters {
		all = append(all, ws...)
	}
	s.waiters = make(map[string][]*waiter)
	s.waiting = 0
	for _, w := range all {
		w.err = ErrClosed
		w.w.Wake()
	}
	s.unlock()
}

// Write stores a deep copy of entry e under transaction t (nil for none),
// with lease duration ttl (Forever for no expiry). It returns an EntryLease
// for renewal or cancellation.
func (s *Space) Write(e Entry, t *Txn, ttl time.Duration) (EntryLease, error) {
	return s.write(e, t, ttl, OpToken{}, writeClient, 0)
}

// writeMode says whose write it is: an in-process client's (e deep-copied,
// its token checked); a remote client's (e was decoded from its frame for
// this call alone and is stored as it is, its token checked); a standby's or
// a recovery's (e decoded and stored as it is, and the token is the source's
// decision to record, not a retry to check); or a migration's, a mirror
// staged until reveal.
type writeMode int

const (
	writeClient writeMode = iota
	writeDecoded
	writeMirror
	writeStaged
)

// write is the shared Write/WriteTok implementation. A non-zero token
// makes the call idempotent: the check and the write itself happen under
// one hold of s.mu, so however many duplicate deliveries race in, exactly
// one executes and the rest return its lease — from the memo table outside
// a transaction, from the transaction's own answers inside one. The entry
// is stored under id (a mirror's), or when id is 0 under one minted here.
func (s *Space) write(e Entry, t *Txn, ttl time.Duration, tok OpToken, mode writeMode, id uint64) (EntryLease, error) {
	ti, v, err := infoFor(e)
	if err != nil {
		return EntryLease{}, err
	}
	s.lock()
	if s.closed {
		s.unlock()
		return EntryLease{}, ErrClosed
	}
	ts, err := s.joinLocked(t)
	if err != nil {
		s.unlock()
		return EntryLease{}, err
	}
	if mode == writeClient || mode == writeDecoded {
		if ses, ok := s.txnHitLocked(ts, tok, MemoWrite); ok {
			s.unlock()
			return EntryLease{s, ses[0]}, nil
		}
		if rec, ok := s.memoHitLocked(tok); ok {
			l := rec.leaseOut(s)
			s.unlock()
			return l, nil
		}
	}
	if mode == writeClient {
		v = deepCopy(v)
	}
	held := enc.Interface(v) // v itself, copied only if a word or less: the entry keeps its data word
	if id == 0 {
		id = s.nextID
	} else {
		s.mirrored = max(s.mirrored, id)
	}
	s.nextID = max(s.nextID, id+1) // id+1 wraps to 0 for the largest id
	se := &storedEntry{id: id, ti: ti, data: (*eface)(unsafe.Pointer(&held)).data, staged: mode == writeStaged}
	if ttl > 0 {
		se.expiry = expiryAfter(s.clock.Now(), ttl)
	}
	s.insertLocked(se)
	if t != nil {
		se.writtenUnder = t.id
		ts.writes = append(ts.writes, se)
		ts.answered[tok] = []*storedEntry{se}
	} else {
		if jerr := s.journalWriteLocked(se, tok); jerr != nil {
			// The write was not logged, so it must not be
			// acknowledged.
			s.removeLocked(se)
			s.unlock()
			return EntryLease{}, jerr
		}
		if !tok.Zero() {
			s.memoInsertLocked(tok, memoRec{op: MemoWrite, key: entryKey(se), entry: se})
		}
		if !se.staged {
			s.publishLocked(se)
		}
	}
	s.stats.Writes++
	s.unlock()
	return EntryLease{s, se}, nil
}

// Read returns a copy of an entry matching tmpl, waiting up to timeout for
// one to appear (timeout <= 0 waits forever). The entry remains in the
// space; under a transaction it is read-locked until the transaction
// completes.
func (s *Space) Read(tmpl Entry, t *Txn, timeout time.Duration) (Entry, error) {
	return s.lookup(opRead, tmpl, t, timeout, true, OpToken{}, false)
}

// Take removes and returns an entry matching tmpl, waiting up to timeout.
// Under a transaction the removal is provisional until commit.
func (s *Space) Take(tmpl Entry, t *Txn, timeout time.Duration) (Entry, error) {
	return s.lookup(opTake, tmpl, t, timeout, true, OpToken{}, false)
}

// ReadIfExists is Read without blocking: it returns ErrNoMatch immediately
// when no matching entry is present.
func (s *Space) ReadIfExists(tmpl Entry, t *Txn) (Entry, error) {
	return s.lookup(opRead, tmpl, t, 0, false, OpToken{}, false)
}

// TakeIfExists is Take without blocking.
func (s *Space) TakeIfExists(tmpl Entry, t *Txn) (Entry, error) {
	return s.lookup(opTake, tmpl, t, 0, false, OpToken{}, false)
}

// lookup is every single-entry Read and Take. A token counts on a take:
// the transaction's answers, or outside one the memo, are checked before
// anything is consumed, and the take — now, or when a write satisfies the
// parked waiter — is noted under the transaction, or leaves as one record
// carrying the token and the entry. The entry found is copied out, unless
// shared: then the caller gets the stored value itself, to encode and drop,
// never to write. An answer from a transaction's or the memo's record is
// copied either way.
func (s *Space) lookup(kind opKind, tmpl Entry, t *Txn, timeout time.Duration, block bool, tok OpToken, shared bool) (Entry, error) {
	var buf [inlineCmps]comparer
	ti, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return nil, err
	}
	if kind != opTake {
		tok = OpToken{}
	}
	s.lock()
	if s.closed {
		s.unlock()
		return nil, ErrClosed
	}
	ts, err := s.joinLocked(t)
	if err != nil {
		s.unlock()
		return nil, err
	}
	if ses, ok := s.txnHitLocked(ts, tok, MemoTake); ok {
		out := copyOut(ses[0].value())
		s.unlock()
		return out, nil
	}
	if rec, ok := s.memoHitLocked(tok); ok && (rec.op == MemoTake || rec.op == MemoTakeAll) {
		e := rec.taken // a take-all's memo answers a take with its first entry
		if e == nil && len(rec.all) > 0 {
			e = rec.all[0]
		}
		if e != nil {
			e = copyEntry(e)
		}
		s.unlock()
		if e == nil {
			return nil, ErrNoMatch
		}
		return e, nil
	}
	if se := s.findLocked(kind, s.listLocked(ti, m), m, t); se != nil {
		if err := s.applyLocked(kind, se, t, tok); err != nil {
			s.unlock()
			return nil, err
		}
		out := se.out(shared)
		s.unlock()
		return out, nil
	}
	if !block {
		s.unlock()
		return nil, ErrNoMatch
	}
	return s.park(&waiter{kind: kind, ti: ti, m: parkedMatcher(tmpl), txn: t, tok: tok, shared: shared}, timeout)
}

// out is what a lookup that found se answers with: a copy, or when shared
// the stored value itself.
func (se *storedEntry) out(shared bool) Entry {
	if shared {
		return se.entry()
	}
	return copyOut(se.value())
}

// entry returns the stored value itself as an Entry, to read and never to
// write: an interface made of the type's word and the entry's data word.
func (se *storedEntry) entry() Entry { return *(*Entry)(unsafe.Pointer(&eface{se.ti.word, se.data})) }

// value is entry as a reflect.Value, spelled out so that it inlines into a
// scan's loop.
func (se *storedEntry) value() reflect.Value {
	return reflect.ValueOf(*(*Entry)(unsafe.Pointer(&eface{se.ti.word, se.data})))
}

// park waits, with s.mu held on entry and released on return, until a
// write or an abort hands w an entry, w fails, or timeout (<= 0: none)
// passes. A transaction holding a lock on w's type may lapse before the
// timeout: the wait is capped just past its deadline, when the lock() that
// ends the wait aborts it and hands what it held to the parked waiters in
// order. A capped waiter that got nothing parks again where it stood.
func (s *Space) park(w *waiter, timeout time.Duration) (Entry, error) {
	w.w = s.clock.NewWaiter()
	s.waiters[w.ti.name] = append(s.waiters[w.ti.name], w)
	s.stats.Blocked++
	s.waiting++
	now := s.clock.Now()
	end := now.Add(timeout) // the lookup's own deadline, when timeout > 0
	for {
		wait, capped := end.Sub(now), false
		if timeout <= 0 {
			wait = 0 // no deadline of its own: wait until woken
		} else if wait <= 0 {
			break
		}
		if at := s.lapseLocked(w.kind, w.ti); !at.IsZero() {
			if d := at.Sub(now) + time.Nanosecond; wait <= 0 || d < wait {
				wait, capped = d, true
			}
		}
		s.unlock()
		w.w.Wait(wait)
		s.lock()
		if w.result != nil || w.err != nil || !capped {
			break
		}
		w.w, now = s.clock.NewWaiter(), s.clock.Now()
	}
	if w.result != nil {
		out := w.result.out(w.shared)
		s.unlock()
		return out, nil
	}
	s.removeWaiterLocked(w)
	if w.err == nil {
		w.err = ErrTimeout
		s.stats.Timeouts++
	}
	s.unlock()
	return nil, w.err
}

// applyLocked records the effect of a successful read/take on entry se;
// tok is the take's token, if it has one: noted as the transaction's answer
// under one, memoized with the removal outside. A non-nil return (a
// refused journal append, non-txn take only) means the removal was not logged and the
// entry remains in the space untouched.
func (s *Space) applyLocked(kind opKind, se *storedEntry, t *Txn, tok OpToken) error {
	switch kind {
	case opRead:
		s.stats.Reads++
		if t != nil && !s.readLocks[readLock{se, t.id}] { // a second read holds the one lock
			s.readLocks[readLock{se, t.id}] = true
			se.readers++
			s.txns[t.id].reads = append(s.txns[t.id].reads, se)
		}
	case opTake:
		if t != nil {
			se.takenUnder = t.id
			ts := s.txns[t.id]
			ts.takes = append(ts.takes, se)
			ts.answered[tok] = []*storedEntry{se}
		} else {
			rec := memoRec{op: MemoTake, key: entryKey(se)}
			if !tok.Zero() {
				// The memo keeps the taken value itself: the space is
				// done with it, and a memo's entries are only ever copied.
				rec.taken = se.entry()
			}
			if err := s.consumeLocked([]*storedEntry{se}, tok, rec); err != nil {
				return err
			}
		}
		s.stats.Takes++
	}
	return nil
}

// publishLocked makes a newly public entry visible: it satisfies blocked
// waiters and queues matching notifications for unlock to deliver.
// Read-waiters are satisfied before take-waiters so that a single arriving
// entry serves every blocked reader and still hands off to one taker —
// the policy that maximizes satisfied operations.
func (s *Space) publishLocked(se *storedEntry) {
	for _, kind := range [...]opKind{opRead, opTake} {
		ws := s.waiters[se.ti.name]
		out := ws[:0]
		var taken bool
		for _, w := range ws {
			if w.kind != kind || taken || se.removed || se.takenUnder != 0 ||
				!s.visibleLocked(se, w.txn) || !w.m.match(se.value()) {
				out = append(out, w)
				continue
			}
			if w.txn != nil && s.txns[w.txn.id] == nil { // finished or lapsed while parked
				w.err = ErrTxnInactive
				w.w.Wake()
				continue
			}
			if w.kind == opTake && !s.takeableLocked(se, w.txn) {
				out = append(out, w)
				continue
			}
			if w.txn != nil { // a redelivered take parked beside its first delivery
				if ses, ok := s.txnHitLocked(s.txns[w.txn.id], w.tok, MemoTake); ok {
					w.result = ses[0]
					w.w.Wake()
					continue
				}
			}
			if err := s.applyLocked(w.kind, se, w.txn, w.tok); err != nil {
				// The journal refused the removal: fail this waiter
				// loudly; the entry stays for others.
				w.err = err
				w.w.Wake()
				continue
			}
			w.result = se
			w.w.Wake()
			if w.kind == opTake {
				taken = true
			}
		}
		s.waiting -= len(ws) - len(out)
		s.waiters[se.ti.name] = out
	}
	s.matchNotifsLocked(se)
}

func (s *Space) removeWaiterLocked(w *waiter) {
	ws := s.waiters[w.ti.name]
	for i, x := range ws {
		if x == w {
			s.waiters[w.ti.name] = append(ws[:i], ws[i+1:]...)
			s.waiting--
			return
		}
	}
}

// reveal makes staged copies visible: their source has let the originals
// go. Waiters and notifications see each as a fresh write.
func (s *Space) reveal(ses []*storedEntry) {
	s.lock()
	for _, se := range ses {
		if se.staged && !se.removed {
			se.staged = false
			s.publishLocked(se)
		}
	}
	s.unlock()
}

// Count returns the number of public entries matching tmpl — a diagnostic
// extension (JavaSpaces05 added a similar contents query).
func (s *Space) Count(tmpl Entry) (int, error) {
	var buf [inlineCmps]comparer
	ti, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return 0, err
	}
	s.lock()
	defer s.unlock()
	items, now := s.listLocked(ti, m).get().items, s.clock.Now()
	n := 0
	for i := s.nextLocked(opRead, items, 0, m, nil, now); i >= 0; i = s.nextLocked(opRead, items, i+1, m, nil, now) {
		n++
	}
	return n, nil
}

// EvictWhere removes every public, unlocked entry matching pred from the
// space, journaling each removal as an eviction (resharding, not
// consumption — see record.go). It returns self-contained write records
// for the evicted entries, so a resharding migration can re-apply them to
// the destination shard, plus the number of matching entries it could NOT
// evict because a transaction holds them (take-locked, read-locked, or an
// uncommitted write): the caller retries once those transactions resolve.
// Capture and removal happen atomically under the space mutex, so no
// concurrent operation observes a half-evicted range.
func (s *Space) EvictWhere(pred func(Entry) bool) ([][]byte, int, error) {
	s.lock()
	if s.closed {
		s.unlock()
		return nil, 0, ErrClosed
	}
	now := s.clock.Now()
	var evicted []*storedEntry
	var expiries []int64
	locked := 0
	for _, st := range s.types {
		for _, se := range st.all.items {
			if se.removed || se.expired(now) {
				continue
			}
			if !pred(se.entry()) {
				continue
			}
			if se.writtenUnder != 0 || se.takenUnder != 0 || se.readers > 0 {
				locked++
				continue
			}
			// Journal first: an eviction that cannot be logged does not
			// happen (the entry stays, the caller sees
			// the error and retries the pass).
			if err := s.journalLocked(&record{kind: recEvict, seqs: []uint64{se.id}}); err != nil {
				s.unlock()
				return nil, locked, err
			}
			s.removeLocked(se)
			evicted, expiries = append(evicted, se), append(expiries, se.expiry)
		}
	}
	s.unlock()
	records, err := encodeWrites(evicted, expiries, "evict")
	return records, locked, err
}

// Stats returns a snapshot of the operation counters.
func (s *Space) Stats() Stats {
	s.lock()
	defer s.unlock()
	st := s.stats
	st.EntriesLive, st.Dead, st.Waiting, st.TxnsLive = len(s.bySeq), s.dead, s.waiting, len(s.txns)
	return st
}

// TypeCounts returns the number of live entries per entry type (including
// txn-held entries), keyed by the fully qualified type name. Operators and
// the shard router use it to observe how entries balance across shards.
func (s *Space) TypeCounts() map[string]int {
	s.lock()
	defer s.unlock()
	now := s.clock.Now()
	counts := make(map[string]int, len(s.types))
	for name, st := range s.types {
		n := 0
		for _, se := range st.all.items {
			if se.removed || se.expired(now) {
				continue
			}
			n++
		}
		if n > 0 {
			counts[name] = n
		}
	}
	return counts
}

// EntryLease controls the lifetime of a written entry. It is a value: the
// space and the entry, which every copy of it names alike.
type EntryLease struct {
	space *Space
	entry *storedEntry
}

// noEntry is what a lease on nothing names: an entry removed before the
// lease was made, which nothing writes to again.
var noEntry = &storedEntry{removed: true}

// Mirrored reports the highest id an entry was stored under because its
// record carried it (a standby's, a recovery's), or 0: ids above it are
// minted here.
func (s *Space) Mirrored() uint64 {
	s.lock()
	defer s.unlock()
	return s.mirrored
}

// Seq returns the space-assigned identity of the leased entry — the Seq
// its journal records carry.
func (l EntryLease) Seq() uint64 {
	return l.entry.id
}

// LeaseFor returns the lease of entry seq: how a service turns a wire
// lease id back into a handle. Once the entry is gone (or for seq 0, which
// names none) it is a lease on nothing: a renewal or cancel answers
// ErrLeaseExpired, unless the cancel is the retry of a tokened one that
// executed.
func (s *Space) LeaseFor(seq uint64) EntryLease {
	s.lock()
	defer s.unlock()
	if se := s.bySeq[seq]; se != nil {
		return EntryLease{s, se}
	}
	return EntryLease{s, noEntry}
}

// Expiration returns the entry's current expiry time (zero for Forever).
func (l EntryLease) Expiration() time.Time {
	l.space.lock()
	defer l.space.unlock()
	return expiryTime(l.entry.expiry)
}

// Renew extends the lease to now+ttl. Renewing an expired or cancelled
// lease fails with ErrLeaseExpired.
func (l EntryLease) Renew(ttl time.Duration) error {
	l.space.lock()
	defer l.space.unlock()
	se := l.entry
	now := l.space.clock.Now()
	if se.removed || se.expired(now) {
		return ErrLeaseExpired
	}
	se.expiry = 0
	if ttl > 0 {
		se.expiry = expiryAfter(now, ttl)
	}
	return nil
}

// Cancel removes the entry immediately.
func (l EntryLease) Cancel() error { return l.CancelTok(OpToken{}) }

// String describes the space for diagnostics.
func (s *Space) String() string {
	st := s.Stats()
	return fmt.Sprintf("tuplespace.Space{live=%d writes=%d takes=%d}", st.EntriesLive, st.Writes, st.Takes)
}
