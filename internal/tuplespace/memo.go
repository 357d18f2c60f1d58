package tuplespace

import (
	"fmt"
	"reflect"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/txn"
)

// Exactly-once mutations: a client mints an OpToken per mutation and the
// space memoizes the outcome under it, so a retried RPC (ambiguous
// timeout, failover, reshard cutover) returns the original outcome
// instead of re-executing. The memo table lives under the same mutex as
// the entries, making check-then-execute atomic with the mutation itself;
// every memo is journaled as a "memo" record alongside the mutation's
// own records, so crash-restart replay, hot-standby replication and
// reshard migration all rebuild it alongside the entries (DESIGN §7).
//
// Record ordering is a crash-consistency contract: replication ships the
// journal stream in batches, and a primary killed mid-stream leaves the
// standby with a PREFIX of the records. Every prefix must be safe. So a
// take's memo record is journaled BEFORE its remove record — a torn ship
// leaves memo-plus-live-entry (the retry answers from the memo; a stray
// duplicate delivery collapses at the aggregator), never a consumed
// entry with no memo, which would block the retried take forever. A
// write's memo comes AFTER its write record for the mirror-image reason:
// a memo answering with a lease for an entry the standby never received
// would turn the retry into silent loss, while entry-without-memo merely
// re-executes into a collapsible duplicate.

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

// memoRec is one memoized mutation outcome.
type memoRec struct {
	op      string
	key     string // index key the op touched ("" when unkeyed)
	keyed   bool
	lease   *EntryLease // write memos: the original entry's lease (nil once rebuilt past consumption)
	entries []Entry     // take/takeall memos: deep copies of the taken entries
	seq     uint64      // write memos: the written entry's journal Seq
}

// memoTable is the bounded token → outcome map. Guarded by Space.mu.
type memoTable struct {
	recs      map[OpToken]*memoRec
	order     []OpToken // FIFO insertion order for eviction
	perClient map[string]int
	maxClient int
	maxTotal  int
	hits      uint64
	evicted   uint64
}

func newMemoTable() *memoTable {
	return &memoTable{
		recs:      make(map[OpToken]*memoRec),
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
func (s *Space) memoHitLocked(tok OpToken) (*memoRec, bool) {
	if tok.Zero() || s.memos == nil {
		return nil, false
	}
	rec, ok := s.memos.recs[tok]
	if ok {
		s.memos.hits++
		if s.memoCounters != nil {
			s.memoCounters.Inc(metrics.CounterDedupHits)
		}
		if s.flightSink != nil {
			s.flightSink("dedup", fmt.Sprintf("tok %s op %s", tok, rec.op))
		}
	}
	return rec, ok
}

// memoInsertLocked stores rec under tok, evicting FIFO past the bounds.
// Evictions are not journaled: bounds re-apply naturally on replay.
func (s *Space) memoInsertLocked(tok OpToken, rec *memoRec) {
	m := s.memosLocked()
	if old, ok := m.recs[tok]; ok {
		// Re-install (replication overlap, replay dedup): replace in place.
		*old = *rec
		return
	}
	m.recs[tok] = rec
	m.order = append(m.order, tok)
	m.perClient[tok.Client]++
	if m.perClient[tok.Client] > m.maxClient {
		s.memoEvictLocked(func(t OpToken) bool { return t.Client == tok.Client })
	}
	if len(m.recs) > m.maxTotal {
		s.memoEvictLocked(func(OpToken) bool { return true })
	}
}

// memoEvictLocked drops the oldest memo matching want, compacting the
// FIFO of already-deleted tokens as it walks.
func (s *Space) memoEvictLocked(want func(OpToken) bool) {
	m := s.memos
	for i, t := range m.order {
		if _, live := m.recs[t]; !live {
			continue // already evicted under the other bound
		}
		if !want(t) {
			continue
		}
		delete(m.recs, t)
		if n := m.perClient[t.Client]; n > 1 {
			m.perClient[t.Client] = n - 1
		} else {
			delete(m.perClient, t.Client)
		}
		m.order = append(m.order[:i], m.order[i+1:]...)
		m.evicted++
		if s.memoCounters != nil {
			s.memoCounters.Inc(metrics.CounterDedupMemoEvicted)
		}
		return
	}
}

// journalMemoLocked appends tok's memo record. Memo durability is
// best-effort even under a strict journal: the mutation itself was
// already logged, and a lost memo only degrades that one op back to
// at-most-once on retry.
func (s *Space) journalMemoLocked(tok OpToken, rec *memoRec) {
	if s.journal == nil {
		return
	}
	_ = s.journal.record(journalOp{
		Kind:        "memo",
		Seq:         rec.seq,
		Tok:         tok,
		MemoOp:      rec.op,
		MemoKey:     rec.key,
		MemoKeyed:   rec.keyed,
		MemoEntries: rec.entries,
	})
}

// memoCompleteLocked inserts and journals a bare success marker
// (commit/abort/cancel memos carry no payload).
func (s *Space) memoCompleteLocked(tok OpToken, op, key string, keyed bool) {
	rec := &memoRec{op: op, key: key, keyed: keyed}
	s.memoInsertLocked(tok, rec)
	s.journalMemoLocked(tok, rec)
}

// leaseOut resolves a write memo to the lease handed back on retry: the
// original when still tracked, a detached (already expired) stand-in when
// the entry was consumed before the memo was rebuilt — the write
// happened, its entry is simply gone, exactly as if the retry had won the
// race and a take then consumed it.
func (rec *memoRec) leaseOut(s *Space) *EntryLease {
	if rec.lease != nil {
		return rec.lease
	}
	return &EntryLease{space: s, entry: &storedEntry{removed: true}}
}

// copyEntries deep-copies entries so memo state and caller results never
// alias.
func copyEntries(entries []Entry) []Entry {
	if entries == nil {
		return nil
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = deepCopy(reflect.Indirect(reflect.ValueOf(e))).Interface()
	}
	return out
}

// entryKeyLocked returns the entry's index-field value ("" / false when
// the type is unindexed or the field is empty).
func entryKeyLocked(se *storedEntry) (string, bool) {
	if se.ti == nil || se.ti.keyField < 0 {
		return "", false
	}
	key := se.val.Field(se.ti.keyField).String()
	return key, key != ""
}

// MemoResult is a memoized outcome returned to a retried caller.
type MemoResult struct {
	// Op is the memoized operation kind (the Memo* constants).
	Op string
	// Lease is the write memo's entry lease (never nil for write memos).
	Lease *EntryLease
	// Entries are the take/takeall memo's originally returned entries.
	Entries []Entry
}

// MemoOutcome looks up the memoized outcome for tok, counting a dedup
// hit. The remote service layer uses it to answer retried commit/abort
// and lease-cancel RPCs; Write/Take retries dedup inside their own ops.
func (s *Space) MemoOutcome(tok OpToken) (MemoResult, bool) {
	s.mu.Lock()
	defer s.unlock()
	rec, ok := s.memoHitLocked(tok)
	if !ok {
		return MemoResult{}, false
	}
	return MemoResult{Op: rec.op, Lease: rec.leaseOut(s), Entries: copyEntries(rec.entries)}, true
}

// CompleteMemo records a bare success marker for tok — the dedup record
// for mutations whose effect lives outside the space proper (a
// transaction commit or abort at the manager). It is journaled like every
// memo, so a retry after failover or restart still finds it.
func (s *Space) CompleteMemo(tok OpToken, op string) {
	if tok.Zero() {
		return
	}
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return
	}
	if _, ok := s.memos.lookup(tok); ok {
		return
	}
	s.memoCompleteLocked(tok, op, "", false)
}

// lookup is a hit-count-free probe (nil-safe).
func (m *memoTable) lookup(tok OpToken) (*memoRec, bool) {
	if m == nil {
		return nil, false
	}
	rec, ok := m.recs[tok]
	return rec, ok
}

// InstallMemo installs a rebuilt memo — the replication/recovery path
// (Applier and journal replay), where the outcome was decided by another
// incarnation of this space. The memo is re-journaled under this space's
// own journal so the chain downstream (WAL, standby-of-standby, taps)
// carries it too.
func (s *Space) InstallMemo(tok OpToken, op, key string, keyed bool, entries []Entry, l *EntryLease) {
	if tok.Zero() {
		return
	}
	s.mu.Lock()
	defer s.unlock()
	if s.closed {
		return
	}
	rec := &memoRec{op: op, key: key, keyed: keyed, lease: l, entries: copyEntries(entries)}
	if l != nil {
		rec.seq = l.Seq()
	}
	s.memoInsertLocked(tok, rec)
	s.journalMemoLocked(tok, rec)
}

// MemoStats reports the memo table's size, dedup hits and evictions.
func (s *Space) MemoStats() (size int, hits, evicted uint64) {
	s.mu.Lock()
	defer s.unlock()
	if s.memos == nil {
		return 0, 0, 0
	}
	return len(s.memos.recs), s.memos.hits, s.memos.evicted
}

// SetMemoBounds overrides the memo table's FIFO bounds (values <= 0 keep
// the current bound). Tests size it down to exercise eviction.
func (s *Space) SetMemoBounds(perClient, total int) {
	s.mu.Lock()
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
	s.mu.Lock()
	s.memoCounters = c
	s.unlock()
}

// SetFlightSink directs memo dedup hits to fn (kind "dedup", detail the
// token and op). Like a journal sink, fn is invoked under the space
// mutex: it must not block, wait on the clock, or re-enter the space —
// the flight recorder's enqueue-only Record satisfies this.
func (s *Space) SetFlightSink(fn func(kind, detail string)) {
	s.mu.Lock()
	s.flightSink = fn
	s.unlock()
}

// EncodeMemos captures every memo as self-contained records — appended by
// EncodeState after the entry records so replay binds write memos to the
// entries restored before them.
func (s *Space) EncodeMemos() ([][]byte, error) {
	return s.EncodeMemosWhere(nil)
}

// EncodeMemosWhere is EncodeMemos restricted to memos whose (key, keyed)
// matches pred — the capture half of shipping a migrated bucket's memo
// slice during a reshard (nil matches everything).
func (s *Space) EncodeMemosWhere(pred func(key string, keyed bool) bool) ([][]byte, error) {
	s.mu.Lock()
	var ops []journalOp
	var toks []OpToken
	if s.memos != nil {
		for _, tok := range s.memos.order {
			rec, ok := s.memos.recs[tok]
			if !ok {
				continue
			}
			if pred != nil && !pred(rec.key, rec.keyed) {
				continue
			}
			seq := rec.seq
			if rec.lease != nil {
				seq = rec.lease.Seq()
			}
			ops = append(ops, journalOp{
				Kind: "memo", Seq: seq, Tok: tok, MemoOp: rec.op,
				MemoKey: rec.key, MemoKeyed: rec.keyed, MemoEntries: rec.entries,
			})
			toks = append(toks, tok)
		}
	}
	s.unlock()

	records := make([][]byte, len(ops))
	for i, op := range ops {
		payload, err := encodeOp(op)
		if err != nil {
			return nil, fmt.Errorf("tuplespace: snapshot memo %s: %w", toks[i], err)
		}
		records[i] = payload
	}
	return records, nil
}

// --- token-carrying mutation variants ---

// WriteTok is Write with an idempotency token: a retry carrying the same
// token returns the original write's lease instead of storing a second
// copy. A zero token (or a transactional write — the transaction is the
// retry unit there) behaves exactly like Write.
func (s *Space) WriteTok(e Entry, t *txn.Txn, ttl time.Duration, tok OpToken) (*EntryLease, error) {
	return s.write(e, t, ttl, tok)
}

// TakeTok is Take with an idempotency token: a retry whose original
// executed (reply lost) returns the originally taken entry instead of
// consuming a second one.
func (s *Space) TakeTok(tmpl Entry, t *txn.Txn, timeout time.Duration, tok OpToken) (Entry, error) {
	return s.lookupTok(opTake, tmpl, t, timeout, true, tok)
}

// Lookup is the single-entry lookup behind Read, Take and their IfExists
// variants, for callers that dispatch on the operation rather than call a
// typed method: take selects removal, block selects waiting up to timeout,
// and tok (takes only) makes a retry return the originally taken entry.
func (s *Space) Lookup(take, block bool, tmpl Entry, t *txn.Txn, timeout time.Duration, tok OpToken) (Entry, error) {
	kind := opRead
	if take {
		kind = opTake
	}
	return s.lookupTok(kind, tmpl, t, timeout, block, tok)
}

// TakeAllTok is TakeAll with an idempotency token: a retry returns the
// original result set. Memo check, memo journal and the removals happen
// under one mutex hold so the memo record precedes every remove record
// in the stream (ordering contract above).
func (s *Space) TakeAllTok(tmpl Entry, t *txn.Txn, max int, tok OpToken) ([]Entry, error) {
	if tok.Zero() || t != nil {
		return s.bulk(opTake, tmpl, t, max)
	}
	return s.bulkTok(tmpl, max, tok)
}

// CancelTok is EntryLease.Cancel with an idempotency token: a retried
// cancel whose original executed returns success instead of
// ErrLeaseExpired. Check and cancellation are atomic under the space
// mutex.
func (l *EntryLease) CancelTok(tok OpToken) error {
	if tok.Zero() {
		return l.Cancel()
	}
	s := l.space
	s.mu.Lock()
	defer s.unlock()
	if rec, ok := s.memoHitLocked(tok); ok && rec.op == MemoCancel {
		return nil
	}
	se := l.entry
	if se.removed {
		return ErrLeaseExpired
	}
	if err := s.journalRemoveLocked(se); err != nil {
		return err
	}
	s.removeLocked(se)
	key, keyed := entryKeyLocked(se)
	s.memoCompleteLocked(tok, MemoCancel, key, keyed)
	return nil
}

// memoWriteLocked memoizes a successful non-transactional token write.
// Caller holds s.mu; se is the entry just stored and journaled.
func (s *Space) memoWriteLocked(tok OpToken, se *storedEntry) {
	key, keyed := entryKeyLocked(se)
	rec := &memoRec{
		op:    MemoWrite,
		key:   key,
		keyed: keyed,
		lease: &EntryLease{space: s, entry: se},
		seq:   se.id,
	}
	s.memoInsertLocked(tok, rec)
	s.journalMemoLocked(tok, rec)
}

// takeMemoRecLocked builds the memo record for a token take of se. The
// caller journals it (journalMemoLocked) BEFORE applying the removal —
// see the ordering contract in the package comment — and inserts it into
// the table (memoInsertLocked) once the removal succeeded. If the
// removal is then rejected by a strict journal the stray memo record
// stays in the log; that replays as memo-plus-live-entry, the safe side
// of the tear.
func (s *Space) takeMemoRecLocked(se *storedEntry) *memoRec {
	key, keyed := entryKeyLocked(se)
	return &memoRec{
		op:      MemoTake,
		key:     key,
		keyed:   keyed,
		entries: []Entry{deepCopy(se.val).Interface()},
	}
}

// lookupTok is lookup with memo check-then-execute for token takes. The
// blocking path threads the token through the waiter so a park satisfied
// later (publishLocked) still memoizes at the moment of consumption.
func (s *Space) lookupTok(kind opKind, tmpl Entry, t *txn.Txn, timeout time.Duration, block bool, tok OpToken) (Entry, error) {
	if tok.Zero() || t != nil || kind != opTake {
		return s.lookup(kind, tmpl, t, timeout, block)
	}
	var buf [inlineCmps]comparer
	ti, key, m, err := compile(tmpl, buf[:0])
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.unlock()
		return nil, ErrClosed
	}
	if rec, ok := s.memoHitLocked(tok); ok && (rec.op == MemoTake || rec.op == MemoTakeAll) {
		var out Entry
		if len(rec.entries) > 0 {
			out = copyEntries(rec.entries[:1])[0]
		}
		s.unlock()
		if out == nil {
			return nil, ErrNoMatch
		}
		return out, nil
	}
	if se := s.findLocked(kind, s.listLocked(ti, key), m, nil); se != nil {
		// Memo record ahead of the remove record (ordering contract above).
		rec := s.takeMemoRecLocked(se)
		s.journalMemoLocked(tok, rec)
		if err := s.applyLocked(kind, se, nil); err != nil {
			s.unlock()
			return nil, err
		}
		s.memoInsertLocked(tok, rec)
		out := deepCopy(se.val).Interface()
		s.unlock()
		return out, nil
	}
	if !block {
		s.unlock()
		return nil, ErrNoMatch
	}
	w := &waiter{kind: kind, ti: ti, m: parkedMatcher(tmpl), w: s.clock.NewWaiter(), tok: tok}
	s.waiters[ti.name] = append(s.waiters[ti.name], w)
	s.stats.Blocked++
	s.unlock()

	w.w.Wait(timeout)

	s.mu.Lock()
	if w.result != nil {
		out := deepCopy(w.result.val).Interface()
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
