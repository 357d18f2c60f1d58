package tuplespace

import (
	"slices"
	"time"
)

// Transactions belong to the space they run in (paper §3: one space makes
// take-task / write-result atomic). The space mints them, keeps their
// state and deadline, and commits, aborts and expires them itself. Expiry
// works the way entry leases do: nothing runs in the background. Every
// operation that takes the mutex first aborts whatever transaction has
// outlived its deadline (lock), and a lookup parked behind a transaction's
// lock caps its wait at that deadline, so the entry reaches it when the
// holder's lease lapses even if nothing else touches the space.

// Txn is a handle on one of a space's transactions. It carries only the
// id: an operation under a transaction that has finished or lapsed — or
// that another space minted — fails with ErrTxnInactive.
type Txn struct {
	s  *Space
	id uint64
}

// ID returns the transaction's identifier, unique within its space and
// counted from 1.
func (t *Txn) ID() uint64 { return t.id }

// Commit commits the transaction without an idempotency token.
func (t *Txn) Commit() error { return t.s.Commit(t, OpToken{}) }

// Abort aborts the transaction without an idempotency token.
func (t *Txn) Abort() error { return t.s.Abort(t, OpToken{}) }

type txnState struct {
	deadline time.Time // zero = never lapses
	writes   []*storedEntry
	takes    []*storedEntry
	reads    []*storedEntry
	// answered holds what each tokened write, take and take-all acted on,
	// so a redelivery gets the first delivery's answer (see memo.go). The
	// zero token's row is written over and never read.
	answered map[OpToken][]*storedEntry
}

// Begin starts a transaction that lapses ttl from now (ttl <= 0: never).
func (s *Space) Begin(ttl time.Duration) *Txn {
	ts := &txnState{answered: make(map[OpToken][]*storedEntry)}
	s.lock()
	s.nextTxn++
	id := s.nextTxn
	if ttl > 0 {
		ts.deadline = s.clock.Now().Add(ttl)
		if s.txnNext.IsZero() || ts.deadline.Before(s.txnNext) {
			s.txnNext = ts.deadline
		}
	}
	s.txns[id] = ts
	s.unlock()
	return &Txn{s: s, id: id}
}

// TxnFor returns a handle on transaction id, live or not: how a service
// turns a wire id back into an operand.
func (s *Space) TxnFor(id uint64) *Txn { return &Txn{s: s, id: id} }

// Commit makes t's provisional writes public and its takes final, and
// releases its read locks. Abort undoes them: provisional writes vanish and
// taken entries are visible again. Either memoizes a non-zero tok in the
// same hold of the mutex, so a retry whose original executed is answered
// from the memo; a retry that finds neither the transaction nor a memo —
// and any call on a transaction that finished or lapsed — gets
// ErrTxnInactive. t may be nil: a retry that has only its token.
func (s *Space) Commit(t *Txn, tok OpToken) error { return s.finish(t, tok, MemoCommit) }

// Abort is Commit's undo; see Commit.
func (s *Space) Abort(t *Txn, tok OpToken) error { return s.finish(t, tok, MemoAbort) }

func (s *Space) finish(t *Txn, tok OpToken, op string) error {
	s.lock()
	if rec, ok := s.memoHitLocked(tok); ok && rec.op == op {
		s.unlock()
		return nil
	}
	ts, err := s.joinLocked(t)
	if ts == nil {
		s.unlock()
		if err == nil {
			err = ErrTxnInactive
		}
		return err
	}
	delete(s.txns, t.id)
	if op == MemoCommit {
		s.commitLocked(t.id, ts)
	} else {
		s.abortLocked(t.id, ts)
	}
	if !tok.Zero() && !s.closed { // a closed space's journal is gone with it
		s.installMemoLocked(tok, memoRec{op: op})
	}
	s.unlock()
	return nil
}

// joinLocked returns t's state (nil for no transaction), or ErrTxnInactive
// when t is not one of this space's live transactions.
func (s *Space) joinLocked(t *Txn) (*txnState, error) {
	if t == nil {
		return nil, nil
	}
	if ts := s.txns[t.id]; ts != nil && t.s == s {
		return ts, nil
	}
	return nil, ErrTxnInactive
}

// commitLocked applies a commit of transaction id, already out of s.txns.
// Writes are journaled before removes: replication ships the stream in
// batches, and a primary killed mid-commit leaves the standby with a
// prefix. Writes-first means a torn commit can only leave both the result
// and its consumed input live, never an input consumed with its output
// lost. A journal failure cannot unwind a commit; it is counted
// (CounterJournalErrors) and the commit stands.
func (s *Space) commitLocked(id uint64, ts *txnState) {
	s.stats.TxnCommits++
	for _, se := range ts.writes {
		if se.removed || se.takenUnder != 0 {
			// Taken under this same transaction: never became public,
			// nothing to journal (the takes loop below logs the removal).
			continue
		}
		se.writtenUnder = 0
		_ = s.journalWriteLocked(se, OpToken{})
		s.publishLocked(se)
	}
	for _, se := range ts.takes {
		se.takenUnder = 0
		s.removeLocked(se)
		_ = s.journalLocked(&record{kind: recRemove, seqs: []uint64{se.id}})
	}
	for _, se := range ts.reads {
		s.unlockReadLocked(se, id)
	}
}

// abortLocked applies an abort of transaction id, already out of s.txns.
// It journals nothing: none of the transaction's effects ever was.
func (s *Space) abortLocked(id uint64, ts *txnState) {
	s.stats.TxnAborts++
	for _, se := range ts.writes {
		s.removeLocked(se)
	}
	for _, se := range ts.reads {
		s.unlockReadLocked(se, id)
	}
	for _, se := range ts.takes {
		if se.removed {
			continue
		}
		se.takenUnder = 0
		s.publishLocked(se)
	}
}

func (s *Space) unlockReadLocked(se *storedEntry, id uint64) {
	delete(s.readLocks, readLock{se, id})
	se.readers--
}

// lock takes the mutex and aborts every transaction past its deadline,
// oldest id first. What that re-exposes is delivered at unlock.
func (s *Space) lock() {
	s.mu.Lock()
	if s.txnNext.IsZero() || s.closed {
		return
	}
	now := s.clock.Now()
	if !now.After(s.txnNext) {
		return
	}
	var lapsed []uint64
	s.txnNext = time.Time{}
	for id, ts := range s.txns {
		switch {
		case ts.deadline.IsZero():
		case now.After(ts.deadline):
			lapsed = append(lapsed, id)
		case s.txnNext.IsZero() || ts.deadline.Before(s.txnNext):
			s.txnNext = ts.deadline
		}
	}
	slices.Sort(lapsed)
	for _, id := range lapsed {
		ts := s.txns[id]
		delete(s.txns, id)
		s.stats.TxnExpired++
		s.abortLocked(id, ts)
	}
}

// lapseLocked returns the earliest deadline among the transactions holding
// a lock that keeps a kind lookup from an entry of type ti — a take lock,
// or for a take a read lock too — or zero when there is none: the instant
// a parked lookup has to look again.
func (s *Space) lapseLocked(kind opKind, ti *typeInfo) time.Time {
	var at time.Time
	if s.txnNext.IsZero() {
		return at
	}
	for _, ts := range s.txns {
		if ts.deadline.IsZero() || !at.IsZero() && !ts.deadline.Before(at) {
			continue
		}
		if holds(ts.takes, ti) || kind == opTake && holds(ts.reads, ti) {
			at = ts.deadline
		}
	}
	return at
}

func holds(ses []*storedEntry, ti *typeInfo) bool {
	for _, se := range ses {
		if se.ti.name == ti.name && !se.removed {
			return true
		}
	}
	return false
}
