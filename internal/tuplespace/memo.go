package tuplespace

import (
	"fmt"
	"reflect"
	"time"

	"gospaces/internal/metrics"
)

// Exactly-once mutations: a client mints an OpToken per mutation and the
// space memoizes the outcome under it, so a retried RPC (ambiguous
// timeout, failover, reshard cutover) returns the original outcome
// instead of re-executing. The memo table lives under the same mutex as
// the entries, making check-then-execute atomic with the mutation itself,
// and the memo is durable the same way: it rides inside the record of the
// mutation it protects. A tokened write is one write record carrying its
// token; a tokened take, take-all or lease cancel is one remove record
// carrying the token and what the op returned. Crash-restart replay,
// hot-standby replication and reshard migration rebuild the table from
// the records that rebuild the entries (DESIGN §7, §17).
//
// So there is no ordering between a mutation and its memo to get right: a
// record applies whole or not at all, and a stream cut anywhere leaves
// each op either not happened (the retry executes) or happened and
// remembered (the retry is answered from the memo). The only memos with a
// record of their own are those of ops with no entry to ride on — a
// transaction's commit or abort marker — and the memo table's rows in a
// snapshot.
//
// A mutation under a transaction is tokened too, but not memoized: nothing
// of it is public before the commit, so its answer lives and dies with the
// transaction (txnState.answered) and is never journaled.

// OpToken identifies one client-originated mutation: a stable client ID
// plus a per-client monotonic operation sequence. The zero value means
// "no token" and disables memoization for the call.
type OpToken struct {
	Client string
	Seq    uint64
}

// Zero reports whether the token is absent.
func (t OpToken) Zero() bool { return t.Client == "" }

// String renders the token for diagnostics.
func (t OpToken) String() string { return fmt.Sprintf("%s#%d", t.Client, t.Seq) }

// Memo op names carried by MemoResult.Op and the journal's memo records.
const (
	MemoWrite   = "write"
	MemoTake    = "take"
	MemoTakeAll = "takeall"
	MemoCommit  = "commit"
	MemoAbort   = "abort"
	MemoCancel  = "cancel"
)

// Default memo-table bounds: FIFO eviction per client and globally. A
// client retries an op within its per-op budget (seconds), so the table
// only has to outlive the retry window, not the run.
const (
	defaultMemoPerClient = 256
	defaultMemoTotal     = 8192
)

// memoRec is one memoized mutation outcome, kept by value in the table: a
// tokened op's memo allocates nothing of its own. What a take answers with
// lives in the row; a take-all's is the slice the op built for it. Taken
// entries are the stored values themselves, never written to again, and a
// hit hands out a copy. A slice of a take's answer is built only where it
// is needed whole, which is rare: a snapshot and a memo record.
type memoRec struct {
	op    string
	key   string       // index key the op's retry routes by ("" when unkeyed)
	entry *storedEntry // write memos: the entry written, which a retry's lease names (nil once rebuilt past consumption)
	taken Entry        // take memos: the taken entry (nil when the take took none)
	all   []Entry      // take-all memos, and any other op's entries: the taken entries
}

// answer sets what rec answers with to es, which rec keeps unless it is a
// take's one entry.
func (rec *memoRec) answer(es []Entry) {
	if rec.op != MemoTakeAll && len(es) == 1 {
		rec.taken = es[0]
	} else {
		rec.all = es
	}
}

// entriesIn returns what rec answers with, in buf when it is a take's one
// entry.
func (rec *memoRec) entriesIn(buf []Entry) []Entry {
	if rec.taken != nil {
		return append(buf, rec.taken)
	}
	return rec.all
}

// memoTable is the bounded token → outcome map. Guarded by Space.mu.
type memoTable struct {
	recs map[OpToken]memoRec
	// order is the FIFO of live tokens, oldest first, from head on. An
	// evicted token leaves a zero token (a hole) in its place, so an
	// eviction moves nothing; holes at the front move head past them, and
	// the live tokens move down once half the array is dead.
	order     []OpToken
	head      int
	holes     int // zero tokens in order[head:]
	perClient map[string]int
	maxClient int
	maxTotal  int
	hits      uint64
	evicted   uint64
}

func newMemoTable() *memoTable {
	return &memoTable{
		recs:      make(map[OpToken]memoRec),
		perClient: make(map[string]int),
		maxClient: defaultMemoPerClient,
		maxTotal:  defaultMemoTotal,
	}
}

// memosLocked returns the table, allocating it on first use.
func (s *Space) memosLocked() *memoTable {
	if s.memos == nil {
		s.memos = newMemoTable()
	}
	return s.memos
}

// memoHitLocked looks tok up and counts a dedup hit.
func (s *Space) memoHitLocked(tok OpToken) (memoRec, bool) {
	if tok.Zero() || s.memos == nil {
		return memoRec{}, false
	}
	rec, ok := s.memos.recs[tok]
	if ok {
		s.memos.hits++
		s.dedupHitLocked(tok, rec.op)
	}
	return rec, ok
}

// txnHitLocked is memoHitLocked for an op under transaction state ts (nil
// outside one): it looks tok up among the transaction's own answers.
func (s *Space) txnHitLocked(ts *txnState, tok OpToken, op string) ([]*storedEntry, bool) {
	if ts == nil || tok.Zero() {
		return nil, false
	}
	ses, ok := ts.answered[tok]
	if ok {
		s.dedupHitLocked(tok, op)
	}
	return ses, ok
}

// dedupHitLocked counts a redelivered op answered instead of executed.
func (s *Space) dedupHitLocked(tok OpToken, op string) {
	if s.memoCounters != nil {
		s.memoCounters.Inc(metrics.CounterDedupHits)
	}
	if s.flightSink != nil {
		s.flightSink("dedup", fmt.Sprintf("tok %s op %s", tok, op))
	}
}

// memoInsertLocked stores rec under tok, evicting FIFO past the bounds.
// Evictions are not journaled: bounds re-apply naturally on replay.
func (s *Space) memoInsertLocked(tok OpToken, rec memoRec) {
	m := s.memosLocked()
	_, again := m.recs[tok]
	m.recs[tok] = rec
	if again {
		// Re-install (replication overlap, replay dedup): replaced in place.
		return
	}
	m.order = append(m.order, tok)
	m.perClient[tok.Client]++
	if m.perClient[tok.Client] > m.maxClient {
		s.memoEvictLocked(func(t OpToken) bool { return t.Client == tok.Client })
	}
	if len(m.recs) > m.maxTotal {
		s.memoEvictLocked(func(OpToken) bool { return true })
	}
}

// memoEvictLocked drops the oldest memo matching want.
func (s *Space) memoEvictLocked(want func(OpToken) bool) {
	m := s.memos
	for i := m.head; i < len(m.order); i++ {
		t := m.order[i]
		if t.Zero() || !want(t) {
			continue
		}
		delete(m.recs, t)
		if n := m.perClient[t.Client]; n > 1 {
			m.perClient[t.Client] = n - 1
		} else {
			delete(m.perClient, t.Client)
		}
		m.order[i] = OpToken{}
		m.holes++
		m.trim()
		m.evicted++
		if s.memoCounters != nil {
			s.memoCounters.Inc(metrics.CounterDedupMemoEvicted)
		}
		return
	}
}

// trim moves head past the holes at the front of the FIFO, and moves the
// live tokens down once holes are half of it, so a hole costs O(1)
// amortized.
func (m *memoTable) trim() {
	for m.head < len(m.order) && m.order[m.head].Zero() {
		m.head++
		m.holes--
	}
	if 2*(m.head+m.holes) <= len(m.order) {
		return
	}
	live := m.order[:0]
	for _, t := range m.order[m.head:] {
		if !t.Zero() {
			live = append(live, t)
		}
	}
	clear(m.order[len(live):])
	m.order, m.head, m.holes = live, 0, 0
}

// installMemoLocked stores rec under tok and journals it as a record of
// its own: the path of a memo with no mutation beside it. Memo durability
// is best-effort: a refused memo record is dropped, because whatever the memo describes
// has happened, and a lost memo only degrades that one op back to
// at-most-once on retry.
func (s *Space) installMemoLocked(tok OpToken, rec memoRec) {
	s.memoInsertLocked(tok, rec)
	if s.journal != nil {
		r := rec.record(tok)
		_ = s.journal.record(&r)
	}
}

// record is rec as a standalone memo record: a write memo names the entry
// its lease holds, so a reader that has the entry binds the two.
func (rec *memoRec) record(tok OpToken) record {
	r := record{kind: recMemo, tok: tok, memoOp: rec.op, key: rec.key, entries: rec.entriesIn(nil)}
	if rec.entry != nil {
		r.seqs = []uint64{rec.entry.id}
	}
	return r
}

// leaseOut resolves a write memo to the lease handed back on retry: the
// original when still tracked, a detached (already expired) stand-in when
// the entry was consumed before the memo was rebuilt — the write
// happened, its entry is simply gone, exactly as if the retry had won the
// race and a take then consumed it.
func (rec *memoRec) leaseOut(s *Space) EntryLease {
	if rec.entry != nil {
		return EntryLease{s, rec.entry}
	}
	return EntryLease{s, noEntry}
}

// copyEntries deep-copies entries so memo state and caller results never
// alias.
func copyEntries(entries []Entry) []Entry {
	if entries == nil {
		return nil
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = copyEntry(e)
	}
	return out
}

// copyEntry is copyEntries for one entry.
func copyEntry(e Entry) Entry { return copyOut(reflect.Indirect(reflect.ValueOf(e))) }

// entryKey returns the entry's index-field value ("" when the type is
// unindexed or the field is empty).
func entryKey(se *storedEntry) string {
	if se.ti == nil || se.ti.keyField < 0 {
		return ""
	}
	return se.value().Field(se.ti.keyField).String()
}

// installMemo installs a rebuilt memo — the replication/recovery path
// (Applier and journal replay), where the outcome was decided by another
// incarnation of this space and rec's entries were decoded for it alone.
// The memo is re-journaled under this space's own journal so the chain
// downstream (WAL, standby-of-standby, taps) carries it too.
func (s *Space) installMemo(tok OpToken, rec memoRec) {
	s.lock()
	defer s.unlock()
	if !s.closed {
		s.installMemoLocked(tok, rec)
	}
}

// MemoStats reports the memo table's size, dedup hits and evictions.
func (s *Space) MemoStats() (size int, hits, evicted uint64) {
	s.lock()
	defer s.unlock()
	if s.memos == nil {
		return 0, 0, 0
	}
	return len(s.memos.recs), s.memos.hits, s.memos.evicted
}

// SetMemoBounds overrides the memo table's FIFO bounds (values <= 0 keep
// the current bound). Tests size it down to exercise eviction.
func (s *Space) SetMemoBounds(perClient, total int) {
	s.lock()
	defer s.unlock()
	m := s.memosLocked()
	if perClient > 0 {
		m.maxClient = perClient
	}
	if total > 0 {
		m.maxTotal = total
	}
}

// SetMemoCounters directs dedup:* counter increments to c.
func (s *Space) SetMemoCounters(c *metrics.Counters) {
	s.lock()
	s.memoCounters = c
	s.unlock()
}

// SetFlightSink directs memo dedup hits to fn (kind "dedup", detail the
// token and op). Like a journal sink, fn is invoked under the space
// mutex: it must not block, wait on the clock, or re-enter the space —
// the flight recorder's enqueue-only Record satisfies this.
func (s *Space) SetFlightSink(fn func(kind, detail string)) {
	s.lock()
	s.flightSink = fn
	s.unlock()
}

// EncodeMemosWhere captures the memo table as memo records, oldest first,
// restricted to memos whose (key, keyed) matches pred (nil matches
// everything): what EncodeState appends after the entry records — so
// replay binds write memos to the entries restored before them — and the
// capture half of shipping a migrated bucket's memo slice during a
// reshard.
func (s *Space) EncodeMemosWhere(pred func(key string, keyed bool) bool) ([][]byte, error) {
	s.lock()
	var rs []record
	if s.memos != nil {
		for _, tok := range s.memos.order[s.memos.head:] { // a hole is in no rec
			rec, ok := s.memos.recs[tok]
			if ok && (pred == nil || pred(rec.key, rec.key != "")) {
				rs = append(rs, rec.record(tok))
			}
		}
	}
	s.unlock()

	records := make([][]byte, len(rs))
	for i := range rs {
		r := &rs[i]
		var err error
		if records[i], err = encodeRecord(r); err != nil {
			return nil, fmt.Errorf("tuplespace: snapshot memo %s: %w", r.tok, err)
		}
	}
	return records, nil
}

// --- token-carrying mutation variants ---

// WriteTok is Write with an idempotency token: a retry carrying the same
// token returns the original write's lease instead of storing a second
// copy. Under a transaction the token is remembered until the transaction
// ends, not memoized. A zero token behaves exactly like Write.
func (s *Space) WriteTok(e Entry, t *Txn, ttl time.Duration, tok OpToken) (EntryLease, error) {
	return s.write(e, t, ttl, tok, writeClient, 0)
}

// TakeTok is Take with an idempotency token: a retry whose original
// executed (reply lost) returns the originally taken entry instead of
// consuming a second one.
func (s *Space) TakeTok(tmpl Entry, t *Txn, timeout time.Duration, tok OpToken) (Entry, error) {
	return s.lookup(opTake, tmpl, t, timeout, true, tok, false)
}

// Lookup is the single-entry lookup behind Read, Take and their IfExists
// variants, for callers that dispatch on the operation rather than call a
// typed method: take selects removal, block selects waiting up to timeout,
// and tok (takes only) makes a retry return the originally taken entry.
func (s *Space) Lookup(take, block bool, tmpl Entry, t *Txn, timeout time.Duration, tok OpToken) (Entry, error) {
	return s.lookup(lookupKind(take), tmpl, t, timeout, block, tok, false)
}

// WriteDecoded is WriteTok for a service whose entry was decoded from a
// request frame for this call alone: the space stores e itself instead of
// a copy, so nobody may touch e again.
func (s *Space) WriteDecoded(e Entry, t *Txn, ttl time.Duration, tok OpToken) (EntryLease, error) {
	return s.write(e, t, ttl, tok, writeDecoded, 0)
}

// LookupShared is Lookup for a service that encodes the entry into its
// reply and drops it: the entry found is the stored value itself, not a
// copy, and nobody may write to it or keep it.
func (s *Space) LookupShared(take, block bool, tmpl Entry, t *Txn, timeout time.Duration, tok OpToken) (Entry, error) {
	return s.lookup(lookupKind(take), tmpl, t, timeout, block, tok, true)
}

func lookupKind(take bool) opKind {
	if take {
		return opTake
	}
	return opRead
}

// TakeAllTok is TakeAll with an idempotency token: a retry returns the
// original result set.
func (s *Space) TakeAllTok(tmpl Entry, t *Txn, max int, tok OpToken) ([]Entry, error) {
	return s.bulk(opTake, tmpl, t, max, tok)
}

// CancelTok is EntryLease.Cancel with an idempotency token: a retried
// cancel whose original executed returns success instead of
// ErrLeaseExpired. Check and cancellation are atomic under the space
// mutex.
func (l EntryLease) CancelTok(tok OpToken) error {
	s := l.space
	s.lock()
	defer s.unlock()
	if rec, ok := s.memoHitLocked(tok); ok && rec.op == MemoCancel {
		return nil
	}
	se := l.entry
	if se.removed {
		return ErrLeaseExpired
	}
	// Journal first: a cancellation that cannot be logged does not happen.
	return s.consumeLocked([]*storedEntry{se}, tok, memoRec{op: MemoCancel, key: entryKey(se)})
}
